//! Seeded inputs: the NDJSON frame book the daemon workloads replay and
//! the labelled case set the `localize` workload reads from disk.

use cdnsim::{named_rows, CdnTopology, FailureInjector, TrafficConfig, TrafficModel};
use mdkpi::{AttrId, Combination, ElementId, LeafFrame, Schema};
use service::json::Json;

/// Minute of simulation the book starts at (day 3, midnight), as loadgen.
const BASE_MINUTE: usize = 2 * 24 * 60;

/// Milliseconds between a tenant's consecutive frame timestamps.
pub const TS_STRIDE_MS: u64 = 60_000;

/// The traffic one daemon workload replays.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Tenants, each with its own seeded topology and traffic model.
    pub tenants: usize,
    /// Locations × access types × OSes × websites.
    pub dims: [usize; 4],
    /// Attribute whose heaviest element roots every injection.
    pub root_attr: usize,
    /// Frames per tenant before the first injection may start.
    pub warmup: usize,
    /// Period of the injection windows, in frames per tenant.
    pub inject_every: usize,
    /// Injected frames per window.
    pub inject_len: usize,
}

/// One frame of a tenant's book.
#[derive(Debug, Clone)]
pub struct Step {
    /// `(elements, value)` rows, as sent.
    pub rows: Vec<(Vec<String>, f64)>,
    /// The observe line without its closing brace; the sender appends
    /// `,"ts":N}` and a newline.
    pub head: String,
    /// Whether the frame carries an injected failure.
    pub anomalous: bool,
}

/// One tenant's schema, injection root and frames.
#[derive(Debug, Clone)]
pub struct TenantBook {
    /// Tenant name on the wire.
    pub name: String,
    /// The tenant's schema.
    pub schema: Schema,
    /// The `{"type":"schema",...}` registration line.
    pub schema_line: String,
    /// The injected root, rendered as incidents render RAPs.
    pub root: String,
    /// Frames by step.
    pub steps: Vec<Step>,
}

impl TenantBook {
    /// The wire line of `step`, content cycled over the book, with its
    /// timestamp and trailing newline.
    pub fn line(&self, step: usize) -> String {
        let s = &self.steps[step % self.steps.len()];
        format!("{},\"ts\":{}}}\n", s.head, step as u64 * TS_STRIDE_MS)
    }

    /// The rows of `step`, content cycled over the book.
    pub fn rows(&self, step: usize) -> &[(Vec<String>, f64)] {
        &self.steps[step % self.steps.len()].rows
    }

    /// Whether `step` carries an injection.
    pub fn anomalous(&self, step: usize) -> bool {
        self.steps[step % self.steps.len()].anomalous
    }
}

fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Build every tenant's book of `steps` frames; injections only before
/// `inject_until` so the last frames of a phase stay clean.
pub fn build(shape: &Shape, seed: u64, steps: usize, inject_until: usize) -> Vec<TenantBook> {
    (0..shape.tenants)
        .map(|t| build_tenant(shape, seed, t, steps, inject_until))
        .collect()
}

fn build_tenant(
    shape: &Shape,
    seed: u64,
    tenant: usize,
    steps: usize,
    inject_until: usize,
) -> TenantBook {
    // the deployment (topology and its weights) is fixed per tenant; the
    // traffic on it and the injections follow the workload seed
    let [locations, access, oses, websites] = shape.dims;
    let topology = CdnTopology::builder()
        .locations(locations)
        .access_types(access)
        .oses(oses)
        .websites(websites)
        .build(tenant_seed(0, tenant));
    let seed = tenant_seed(seed, tenant);
    let schema = topology.schema().clone();
    let root = heaviest(&topology, AttrId(shape.root_attr as u16));
    let model = TrafficModel::new(topology, TrafficConfig::default(), seed);
    // deep enough that every injected frame moves the total KPI past the
    // alarm threshold, so recall measures localization, not chance
    let injector = FailureInjector::new(0.7, 0.95);
    let name = format!("t{tenant}");
    let steps = (0..steps)
        .map(|step| {
            let mut frame = model.snapshot(BASE_MINUTE + step);
            let anomalous = step < inject_until
                && step >= shape.warmup
                && (step - shape.warmup) % shape.inject_every < shape.inject_len;
            if anomalous {
                injector.inject(&mut frame, std::slice::from_ref(&root), seed ^ step as u64);
            }
            let rows = named_rows(&frame);
            let mut head = observe_line(&name, &rows);
            head.pop();
            Step {
                rows,
                head,
                anomalous,
            }
        })
        .collect();
    TenantBook {
        schema_line: schema_line(&name, &schema),
        root: root.to_string(),
        name,
        schema,
        steps,
    }
}

/// The single-element combination on `attr`'s heaviest element.
fn heaviest(topology: &CdnTopology, attr: AttrId) -> Combination {
    let schema = topology.schema();
    let element = schema
        .attribute(attr)
        .element_ids()
        .max_by(|a, b| {
            topology
                .weight(attr, *a)
                .total_cmp(&topology.weight(attr, *b))
        })
        .expect("attribute has elements");
    Combination::from_pairs(schema, [(attr, element)])
}

fn schema_line(tenant: &str, schema: &Schema) -> String {
    let attributes = schema
        .attr_ids()
        .map(|a| {
            let def = schema.attribute(a);
            Json::Arr(vec![
                Json::str(def.name()),
                Json::Arr(
                    def.element_ids()
                        .map(|e| Json::str(def.element_name(e)))
                        .collect(),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("type".to_string(), Json::str("schema")),
        ("tenant".to_string(), Json::str(tenant)),
        ("attributes".to_string(), Json::Arr(attributes)),
    ])
    .render()
}

fn observe_line(tenant: &str, rows: &[(Vec<String>, f64)]) -> String {
    let rows = rows
        .iter()
        .map(|(names, v)| {
            Json::Arr(vec![
                Json::Arr(names.iter().map(Json::str).collect()),
                Json::Num(*v),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("type".to_string(), Json::str("observe")),
        ("tenant".to_string(), Json::str(tenant)),
        ("rows".to_string(), Json::Arr(rows)),
    ])
    .render()
}

/// SplitMix64: the case generator's deterministic stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// One labelled localization case and the RAPs planted in it.
pub struct Case {
    pub frame: LeafFrame,
    pub planted: Vec<String>,
}

/// A labelled 33×4×4×(20·scale) frame with three planted RAPs — one
/// location, one isp×channel pair, one website — plus 3 % scattered
/// noise, forecasts reconstructed from Eq. 5. Every attribute carries a
/// root, so CP deletes none and, the noise defeating the early stop, the
/// search sweeps the lattice (about 63k combinations at scale 4).
pub fn case(seed: u64, scale: usize) -> Case {
    let mut rng = SplitMix(seed);
    let sites = 20 * scale as u32;
    let schema = Schema::builder()
        .attribute("location", (1..=33).map(|i| format!("L{i:02}")))
        .attribute("isp", (1..=4).map(|i| format!("I{i}")))
        .attribute("channel", (1..=4).map(|i| format!("C{i}")))
        .attribute("website", (1..=sites).map(|i| format!("S{i:02}")))
        .build()
        .expect("case schema is valid");
    let loc_a = rng.below(33);
    let (isp, chan) = (rng.below(4), rng.below(4));
    let site = rng.below(sites);
    let at = |a: u16, e: u32| (AttrId(a), ElementId(e));
    let planted = [
        Combination::from_pairs(&schema, [at(0, loc_a)]),
        Combination::from_pairs(&schema, [at(1, isp), at(2, chan)]),
        Combination::from_pairs(&schema, [at(3, site)]),
    ];
    let eps = 1e-9;
    let mut builder = LeafFrame::builder(&schema);
    let mut labels = Vec::new();
    for l in 0..33u32 {
        for i in 0..4u32 {
            for c in 0..4u32 {
                for s in 0..sites {
                    let truth = l == loc_a || (i == isp && c == chan) || s == site;
                    let anomalous = truth || rng.unit() < 0.03;
                    let dev = if anomalous {
                        0.1 + 0.8 * rng.unit()
                    } else {
                        -0.02 + 0.11 * rng.unit()
                    };
                    let v = 20.0 + 100.0 * rng.unit();
                    let f = (v + dev * eps) / (1.0 - dev);
                    builder.push(
                        &[ElementId(l), ElementId(i), ElementId(c), ElementId(s)],
                        v,
                        f,
                    );
                    labels.push(anomalous);
                }
            }
        }
    }
    let mut frame = builder.build();
    frame.set_labels(labels).expect("one label per pushed row");
    Case {
        frame,
        planted: planted.iter().map(Combination::to_string).collect(),
    }
}
