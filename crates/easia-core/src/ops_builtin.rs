//! Built-in (native) post-processing operations.
//!
//! The paper's operations "can consist of Java classes or any other
//! executable format, suitable for the file server host on which the
//! data resides, including C, FORTRAN and scripting languages" — these
//! Rust implementations play the role of those pre-compiled codes.

use easia_ops::job::NativeOp;
use easia_ops::JobRunner;
use easia_sci::render::{render_ppm, Colormap};
use easia_sci::sdb::{describe, SdbFormat};
use easia_sci::slice::{extract_plane, Axis};
use easia_sci::stats::{dataset_stats, kinetic_energy, stats_report};
use std::rc::Rc;

/// Register every built-in operation with the runner.
pub fn register(runner: &mut JobRunner) {
    runner.register_native("getimage", getimage());
    runner.register_native("fieldstats", fieldstats());
    runner.register_native("sdb", sdb());
    runner.register_native("head", head());
}

/// `GetImage`: extract a plane from a component and render a PPM — the
/// paper's slice visualiser. Parameters: `slice` (e.g. `x0`, `z16`),
/// `type` (`u|v|w|p`).
fn getimage() -> NativeOp {
    Rc::new(|dataset, params, ws| {
        let slice = params
            .get("slice")
            .ok_or_else(|| "missing parameter slice".to_string())?;
        let component = params
            .get("type")
            .ok_or_else(|| "missing parameter type".to_string())?;
        let (axis_ch, index_str) = slice.split_at(1);
        let axis = Axis::parse(axis_ch).ok_or_else(|| format!("bad slice axis {slice:?}"))?;
        let index: usize = index_str
            .parse()
            .map_err(|_| format!("bad slice index {slice:?}"))?;
        let plane = extract_plane(dataset, component, axis, index).map_err(|e| e.to_string())?;
        let colormap = if component == "p" {
            Colormap::Heat
        } else {
            Colormap::Diverging
        };
        let img = render_ppm(&plane, colormap);
        let name = format!("slice_{component}_{slice}.ppm");
        ws.write(&name, img);
        Ok(format!(
            "rendered {name}: {}x{} plane of component {component}\n",
            plane.cols, plane.rows
        ))
    })
}

/// `FieldStats`: per-component summary statistics plus the turbulent
/// kinetic energy — reduces megabytes to a dozen lines. Each component
/// is read once; the energy comes from the `u`, `v` and `w` statistics
/// and is left out when any of them failed.
fn fieldstats() -> NativeOp {
    Rc::new(|dataset, _params, _ws| {
        const COMPONENTS: [&str; 4] = ["u", "v", "w", "p"];
        let stats = COMPONENTS.map(|c| dataset_stats(dataset, c));
        let mut out = String::new();
        for (c, s) in COMPONENTS.iter().zip(&stats) {
            match s {
                Ok(s) => {
                    out.push_str(&stats_report(c, s));
                    out.push('\n');
                }
                Err(e) => {
                    out.push_str(&format!("dataset {c}: {e}\n"));
                }
            }
        }
        if let [Ok(u), Ok(v), Ok(w), _] = &stats {
            let e = kinetic_energy(u, v, w);
            out.push_str(&format!("turbulent kinetic energy = {e:.6}\n"));
        }
        Ok(out)
    })
}

/// `sdb`: the Scientific Data Browser — describe the file's structure
/// as HTML (the paper's NCSA SDB URL operation).
fn sdb() -> NativeOp {
    Rc::new(|dataset, params, ws| {
        let format = match params.get("format").map(String::as_str) {
            Some("text") => SdbFormat::Text,
            _ => SdbFormat::Html,
        };
        let page = describe(dataset, format).map_err(|e| e.to_string())?;
        ws.write("structure.html", page.clone().into_bytes());
        Ok(page)
    })
}

/// `head`: ship the first N bytes (parameter `n`, default 1024) — a
/// trivial data-reduction operation used by tests and benchmarks.
fn head() -> NativeOp {
    Rc::new(|dataset, params, ws| {
        let n: usize = params
            .get("n")
            .map(|s| s.parse().map_err(|_| format!("bad n {s:?}")))
            .transpose()?
            .unwrap_or(1024);
        let take = n.min(dataset.len());
        ws.write("head.bin", dataset[..take].to_vec());
        Ok(format!("{take} bytes\n"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_ops::vm::Limits;
    use easia_ops::JobSpec;
    use easia_sci::edf::timestep_file;
    use easia_sci::field::{FieldSpec, TurbulenceField};

    fn dataset() -> Vec<u8> {
        let f = TurbulenceField::generate(&FieldSpec::small(5), 0.0);
        timestep_file(&f, "S1", 0).encode()
    }

    fn run(op: &str, params: &[(&str, &str)]) -> easia_ops::JobResult {
        run_on(dataset(), op, params)
    }

    fn run_on(dataset: Vec<u8>, op: &str, params: &[(&str, &str)]) -> easia_ops::JobResult {
        let mut r = JobRunner::new();
        register(&mut r);
        let spec = JobSpec {
            session_id: "t".into(),
            operation: op.into(),
            op_type: "NATIVE".into(),
            package: vec![],
            entry: op.into(),
            dataset_name: "t000.edf".into(),
            dataset,
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            limits: Limits::default(),
        };
        r.run(&spec).unwrap()
    }

    #[test]
    fn getimage_produces_ppm() {
        let res = run("getimage", &[("slice", "z0"), ("type", "u")]);
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.outputs[0].0, "slice_u_z0.ppm");
        assert!(res.outputs[0].1.starts_with(b"P6"));
        assert!(res.stdout.contains("32x32"));
    }

    #[test]
    fn getimage_pressure_uses_heat() {
        let res = run("getimage", &[("slice", "x4"), ("type", "p")]);
        assert!(res.outputs[0].0.contains("p_x4"));
    }

    #[test]
    fn getimage_errors() {
        let mut r = JobRunner::new();
        register(&mut r);
        let spec = JobSpec {
            session_id: "t".into(),
            operation: "getimage".into(),
            op_type: "NATIVE".into(),
            package: vec![],
            entry: "getimage".into(),
            dataset_name: "x".into(),
            dataset: dataset(),
            params: [
                ("slice".to_string(), "q0".to_string()),
                ("type".to_string(), "u".to_string()),
            ]
            .into_iter()
            .collect(),
            limits: Limits::default(),
        };
        assert!(r.run(&spec).is_err(), "bad axis");
    }

    #[test]
    fn fieldstats_reports_all_components() {
        let res = run("fieldstats", &[]);
        for c in ["u", "v", "w", "p"] {
            assert!(
                res.stdout.contains(&format!("dataset {c}:")),
                "{}",
                res.stdout
            );
        }
        assert!(res.stdout.contains("kinetic energy"));
    }

    /// The report's exact bytes: every digit of every statistic and of
    /// the energy, which is derived from the `u`, `v` and `w` lines.
    #[test]
    fn fieldstats_stdout_is_pinned() {
        assert_eq!(
            run("fieldstats", &[]).stdout,
            "dataset u: count=32768 min=-2.535720 max=3.264235 mean=0.003675 rms=0.721449\n\
             dataset v: count=32768 min=-2.142171 max=2.041892 mean=0.014273 rms=0.578064\n\
             dataset w: count=32768 min=-2.865190 max=3.152892 mean=0.013563 rms=0.752449\n\
             dataset p: count=32768 min=-5.967205 max=-0.000432 mean=-0.710613 rms=0.582498\n\
             turbulent kinetic energy = 0.710413\n"
        );
    }

    /// Without `w` its line is the error and the energy line is absent.
    #[test]
    fn fieldstats_without_w_prints_the_error_and_no_energy() {
        let f = TurbulenceField::generate(&FieldSpec::small(5), 0.0);
        let n = f.n as u64;
        let bytes = easia_sci::EdfFile::new()
            .with_dataset("u", &[n, n, n], f.u.clone())
            .with_dataset("v", &[n, n, n], f.v.clone())
            .with_dataset("p", &[n, n, n], f.p.clone())
            .encode();
        assert_eq!(
            run_on(bytes, "fieldstats", &[]).stdout,
            "dataset u: count=32768 min=-2.535720 max=3.264235 mean=0.003675 rms=0.721449\n\
             dataset v: count=32768 min=-2.142171 max=2.041892 mean=0.014273 rms=0.578064\n\
             dataset w: no such dataset: w\n\
             dataset p: count=32768 min=-5.967205 max=-0.000432 mean=-0.710613 rms=0.582498\n"
        );
    }

    #[test]
    fn sdb_describes_structure() {
        let res = run("sdb", &[]);
        assert!(res.stdout.contains("EDF structure"));
        assert!(res.outputs.iter().any(|(n, _)| n == "structure.html"));
        let res = run("sdb", &[("format", "text")]);
        assert!(res.stdout.contains("dataset u"));
    }

    #[test]
    fn head_truncates() {
        let res = run("head", &[("n", "100")]);
        assert_eq!(res.outputs[0].1.len(), 100);
        let res = run("head", &[]);
        assert_eq!(res.outputs[0].1.len(), 1024);
    }
}
