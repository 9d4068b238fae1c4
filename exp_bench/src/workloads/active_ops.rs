//! `active_ops`: the paper's "active archive" — operations run next to
//! the data.
//!
//! 32 simulations × 3 timesteps of real EDF data at grid 32 (96 files
//! of ≈1 MB), the operation result cache at its default 64 entries.
//! `easia-sci`, `easia-ops` (VM, assembler, cache), `easia-fs`,
//! `easia-crypto` and the WAN engine work on **bytes, not rows**;
//! `easia-db` and `easia-med` are nearly idle, so a SQL or federation
//! change must not move this workload, and a cache or kernel change
//! shows only here.

use super::{seed_authors, shuffle, AUTHORS};
use crate::harness::{Config, Counters, Recorder, Report, Workload};
use crate::portal::{probes, script_digest, Expect, Op, Portal, RawRequest};
use crate::trace::Tracer;
use easia_core::{paper_link_spec, turbulence, Archive};
use easia_db::Value;
use easia_fs::FileContent;
use easia_sci::edf::timestep_file;
use easia_sci::{FieldSpec, TurbulenceField};
use easia_web::http::url_encode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HOST: &str = "fs1.example";
const TIMESTEPS: usize = 3;
/// Distinct generated fields; files reuse them round-robin (an
/// operation's cost depends on the file's size and layout, and the
/// result cache keys on the URL, so repeats are invisible to it).
const FIELDS: usize = 8;
/// The sweep visits every dataset with each of these slices: 96 × 2
/// result-cache keys, three times the cache's 64 entries.
const SWEEP_SLICES: [&str; 2] = ["z0", "x16"];
/// `(dataset, slice, component)` combinations the skewed draw favours.
const HOT_KEYS: usize = 8;

/// Ops per round by class besides the sweep (one op per dataset and
/// sweep slice); a round also opens with one login. Every `ops.result`
/// follows the `ops.getimage_hot` whose image it fetches.
const MIX: [(&str, usize); 5] = [
    ("ops.getimage_hot", 60),
    ("ops.fieldstats", 20),
    ("ops.upload", 10),
    ("ops.download", 20),
    ("ops.metrics", 6),
];
/// How many of the hot GetImage ops are followed by a result fetch.
const RESULTS: usize = 20;

/// Grid points per side: 4 components × 32³ doubles ≈ 1 MB per file.
const GRID: usize = 32;

struct Sizes {
    sims: usize,
}

/// The workload.
pub struct ActiveOps {
    portal: Portal,
    script: Vec<Op>,
    files: usize,
}

/// Stored (`/op`, `/upload`) and tokenized (`/download`) URL per file.
struct Dataset {
    stored: String,
    tokenized: String,
    size: usize,
}

fn build_archive(sz: &Sizes) -> Archive {
    let mut a = Archive::builder()
        .file_server(HOST, paper_link_spec())
        // Download tokens must outlive a window of fast WAN time.
        .token_ttl(100_000_000)
        .build();
    turbulence::install_schema(&mut a).expect("schema");
    seed_authors(&mut a.db);
    let fields: Vec<TurbulenceField> = (0..FIELDS)
        .map(|f| {
            TurbulenceField::generate(
                &FieldSpec {
                    n: GRID,
                    modes: 32,
                    seed: 1000 + f as u64,
                    length_scale: 0.3,
                },
                f as f64,
            )
        })
        .collect();
    for s in 0..sz.sims {
        let key = format!("S{s:03}");
        a.db.execute(&format!(
            "INSERT INTO simulation VALUES ('{key}', 'Channel flow run {s}', '{}', {}, 395.0, {TIMESTEPS}, \
             'Direct numerical simulation of turbulent channel flow, run {s}.')",
            AUTHORS[s % AUTHORS.len()].0,
            GRID,
        ))
        .expect("simulation");
        for t in 0..TIMESTEPS {
            let field = &fields[(s * TIMESTEPS + t) % FIELDS];
            let bytes = timestep_file(field, &key, t as u32).encode();
            let size = bytes.len() as i64;
            let name = format!("t{t:03}.edf");
            let url = a
                .archive_file_local(
                    HOST,
                    &format!("/data/{key}/{name}"),
                    FileContent::Bytes(bytes),
                )
                .expect("file server");
            a.db.execute_with_params(
                "INSERT INTO result_file VALUES (?, ?, ?, 'u,v,w,p', 'EDF', ?, ?)",
                &[
                    Value::Str(name),
                    Value::Str(key.clone()),
                    Value::Int(t as i64),
                    Value::Int(size),
                    Value::Str(url),
                ],
            )
            .expect("result file");
        }
    }
    a.generate_xuis(4);
    turbulence::attach_standard_operations(&mut a).expect("operations");
    a
}

fn datasets(a: &mut Archive) -> Vec<Dataset> {
    let rs =
        a.db.execute(
            "SELECT DLURLCOMPLETE(download_result), download_result, file_size FROM result_file \
             ORDER BY simulation_key, file_name",
        )
        .expect("dataset urls");
    rs.rows
        .iter()
        .map(|r| Dataset {
            stored: r[0].to_string(),
            tokenized: r[1].to_string(),
            size: match r[2] {
                Value::Int(n) => n as usize,
                _ => 0,
            },
        })
        .collect()
}

/// The uploaded code: the assembler's checksum example, bounded to the
/// first 32 KiB so one run is a few milliseconds of VM loop.
pub fn upload_epc() -> String {
    probes::UPLOAD_EPC.replacen("INPUTSIZE", "PUSH 32768", 1)
}

fn getimage(class: &str, d: &Dataset, slice: &str, component: &str) -> Op {
    Op::http(
        class,
        RawRequest::post(
            "/op/RESULT_FILE/GetImage",
            &[
                ("dataset", &d.stored),
                ("slice", slice),
                ("type", component),
            ],
        ),
        Expect::body(200),
    )
}

fn gen_script(seed: u64, data: &[Dataset]) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let slices = ["x0", "x8", "x16", "z0"];
    let components = ["u", "v", "w", "p"];
    let hot: Vec<(usize, &str, &str)> = (0..HOT_KEYS)
        .map(|_| {
            (
                rng.gen_range(0..data.len()),
                slices[rng.gen_range(0..slices.len())],
                components[rng.gen_range(0..components.len())],
            )
        })
        .collect();
    // Each unit is one op, or a hot GetImage with its result fetch.
    let mut units: Vec<Vec<Op>> = Vec::new();
    for d in data {
        for slice in SWEEP_SLICES {
            units.push(vec![getimage("ops.getimage_sweep", d, slice, "u")]);
        }
    }
    let code = upload_epc();
    for (class, n) in MIX {
        for k in 0..n {
            let any = |rng: &mut StdRng| &data[rng.gen_range(0..data.len())];
            let unit = match class {
                "ops.getimage_hot" => {
                    let (d, slice, component) = if rng.gen_bool(0.8) {
                        hot[rng.gen_range(0..hot.len())]
                    } else {
                        (
                            rng.gen_range(0..data.len()),
                            slices[rng.gen_range(0..slices.len())],
                            components[rng.gen_range(0..components.len())],
                        )
                    };
                    let mut unit = vec![getimage(class, &data[d], slice, component)];
                    if k < RESULTS {
                        unit.push(Op::http(
                            "ops.result",
                            RawRequest::get(format!("/result/slice_{component}_{slice}.ppm")),
                            Expect::body(1000),
                        ));
                    }
                    unit
                }
                "ops.fieldstats" => vec![Op::http(
                    class,
                    RawRequest::post(
                        "/op/RESULT_FILE/FieldStats",
                        &[("dataset", &any(&mut rng).stored)],
                    ),
                    Expect::body(200),
                )],
                "ops.upload" => vec![Op::http(
                    class,
                    RawRequest::post(
                        "/upload",
                        &[("dataset", &any(&mut rng).stored), ("code", &code)],
                    ),
                    Expect::body(100),
                )],
                "ops.download" => {
                    let d = any(&mut rng);
                    vec![Op::http(
                        class,
                        RawRequest::get(format!("/download?url={}", url_encode(&d.tokenized))),
                        Expect::body(d.size),
                    )]
                }
                "ops.metrics" => vec![Op::http(
                    class,
                    RawRequest::get("/metrics".into()),
                    Expect::body(5000),
                )],
                other => unreachable!("class {other} has no generator"),
            };
            units.push(unit);
        }
    }
    shuffle(&mut units, &mut rng);
    units.into_iter().flatten().collect()
}

impl ActiveOps {
    /// Build, fill the file server, generate the XUIS and the script.
    pub fn build(cfg: &Config) -> Self {
        let sz = Sizes {
            // Never so few that the sweep fits the 64-entry result cache.
            sims: cfg.scaled(32, 12),
        };
        let twin = cfg.trace.then(|| build_archive(&sz));
        let mut archive = build_archive(&sz);
        let data = datasets(&mut archive);
        ActiveOps {
            script: gen_script(cfg.seed, &data),
            files: data.len(),
            portal: Portal::new(archive, twin, &[]),
        }
    }
}

impl Workload for ActiveOps {
    fn round(&mut self, rec: &mut Recorder, tr: &mut Tracer) {
        self.portal.login(rec, tr);
        for op in &self.script {
            self.portal.run(op, rec, tr);
        }
    }

    fn counters(&self) -> Counters {
        self.portal.counters()
    }

    fn script_digest(&self) -> String {
        script_digest(&self.script)
    }

    fn layer_counts(&self, d: &Counters, ops: f64, rep: &mut Report) {
        Portal::layer_counts(d, ops, 0.0, 0.0, rep);
    }

    fn probes(&mut self, rep: &mut Report) {
        let twin = self.portal.twin.as_mut().expect("traced run has a twin");
        probes::run(&mut twin.archive, rep);
        probes::link_us(self.files, rep);
    }
}
