//! The regression gate of the five gated bench binaries.
//!
//! Each binary measures, runs its always-on correctness gates, builds
//! its report as a [`Json`] value and hands it to [`Gate::finish`].
//! That writes the report to `--out`, then — unless `BENCH_SKIP_CHECK`
//! is set — holds the bench's fixed minimums and, with
//! `--check BASELINE.json`, compares the report with the committed
//! baseline under the bench's [`Spec`]. Report and baseline are read
//! by the same path lookup, so a gated number is exactly the number
//! the bench records.
//!
//! ```text
//! <bench> [--out PATH] [--check BASELINE.json]
//! ```

use occ_server::Json;
use std::ffi::OsString;
use std::process::ExitCode;

/// How far a hardware-normalized ratio may drop below its baseline.
const TOLERANCE: f64 = 0.20;

/// Environment switch: any non-empty value skips every perf and
/// quality floor (for cold or shared machines). Correctness gates
/// still run.
const SKIP_VAR: &str = "BENCH_SKIP_CHECK";

/// How far a gated number may fall below its baseline value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Floor {
    /// By at most this fraction of the baseline.
    Relative(f64),
    /// By at most this amount, in the number's own unit.
    Absolute(f64),
    /// [`TOLERANCE`] below the baseline, reported but never failing: an
    /// absolute throughput, which a slower runner misses without any
    /// regression.
    Advisory,
}

impl Floor {
    /// The lowest passing value against `base`.
    fn below(self, base: f64) -> f64 {
        match self {
            Floor::Relative(t) => base * (1.0 - t),
            Floor::Absolute(d) => base - d,
            Floor::Advisory => base * (1.0 - TOLERANCE),
        }
    }
}

/// What one bench's gate reads from its report and baseline. Paths are
/// dotted member names; `name[key=value]` picks the element of array
/// `name` whose string member `key` is `value`.
#[derive(Debug)]
pub struct Spec {
    /// Binary name, prefixing error lines.
    bench: &'static str,
    /// Report file: the default `--out` and the committed baseline.
    file: &'static str,
    /// Members that must equal the baseline's for the comparison to
    /// mean anything; otherwise it is skipped.
    config: &'static [&'static str],
    /// Members compared with the baseline, with their floors.
    floors: &'static [(&'static str, Floor)],
}

/// `fsim_bench`: kernel-vs-reference speedup; kernel throughput noted.
pub const FSIM: Spec = Spec {
    bench: "fsim_bench",
    file: "BENCH_fsim.json",
    config: &["faults"],
    floors: &[
        ("speedup_kernel_vs_reference", Floor::Relative(TOLERANCE)),
        ("engines[engine=kernel].faults_per_sec", Floor::Advisory),
    ],
};

/// `atpg_bench`: compiled-vs-reference PODEM decisions/sec ratio.
pub const ATPG: Spec = Spec {
    bench: "atpg_bench",
    file: "BENCH_atpg.json",
    config: &["faults"],
    floors: &[("speedup_compiled_vs_reference", Floor::Relative(TOLERANCE))],
};

/// `timing_bench`: compiled-vs-reference STA passes/sec ratio; the
/// timed re-grade's auto-vs-serial ratio noted.
pub const TIMING: Spec = Spec {
    bench: "timing_bench",
    file: "BENCH_timing.json",
    config: &["cells"],
    floors: &[
        ("speedup_compiled_vs_reference", Floor::Relative(TOLERANCE)),
        ("regrade.speedup_auto_vs_serial", Floor::Advisory),
    ],
};

/// `bist_bench`: seed-determined delivery quality, so the floors are
/// tight — 10% of the compression ratio, half a coverage point.
pub const BIST: Spec = Spec {
    bench: "bist_bench",
    file: "BENCH_bist.json",
    config: &["flops_per_domain"],
    floors: &[
        ("edt.compression_ratio", Floor::Relative(0.10)),
        ("lbist.coverage_pct_1k", Floor::Absolute(0.5)),
        ("lbist.coverage_pct_10k", Floor::Absolute(0.5)),
    ],
};

/// `server_bench`: warm-over-cold analyze jobs/sec ratio.
pub const SERVER: Spec = Spec {
    bench: "server_bench",
    file: "BENCH_server.json",
    config: &["flops_per_domain", "clients", "designs"],
    floors: &[("warm_over_cold", Floor::Relative(TOLERANCE))],
};

/// The gate of one bench run: where its report goes, what it is
/// checked against, and whether the floors are skipped.
#[derive(Debug)]
pub struct Gate {
    spec: &'static Spec,
    out: String,
    baseline: Option<String>,
    skip: bool,
}

impl Gate {
    /// Reads `--out`/`--check` from the command line and
    /// `BENCH_SKIP_CHECK` from the environment.
    ///
    /// # Errors
    ///
    /// Prints the usage error and returns exit code 2 on any other flag
    /// or a missing value.
    pub fn from_env(spec: &'static Spec) -> Result<Gate, ExitCode> {
        Gate::parse(spec, std::env::args().skip(1), std::env::var_os(SKIP_VAR)).map_err(|e| {
            eprintln!("{}: {e}", spec.bench);
            ExitCode::from(2)
        })
    }

    fn parse(
        spec: &'static Spec,
        args: impl IntoIterator<Item = String>,
        skip: Option<OsString>,
    ) -> Result<Gate, String> {
        let mut gate = Gate {
            spec,
            out: spec.file.to_owned(),
            baseline: None,
            skip: skip.is_some_and(|v| !v.is_empty()),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let slot = match flag.as_str() {
                "--out" => &mut gate.out,
                "--check" => gate.baseline.insert(String::new()),
                _ => return Err(format!("unknown flag '{flag}' (only --out and --check)")),
            };
            *slot = args.next().ok_or(format!("{flag} expects a value"))?;
        }
        Ok(gate)
    }

    /// Writes `report` to `--out`; then, unless skipped, checks each
    /// `(what, fresh, floor)` minimum and, with `--check`, the spec's
    /// baseline floors. Fails on an unwritable report, an unreadable
    /// baseline or any broken floor.
    #[must_use]
    pub fn finish(&self, report: &Json, minimums: &[(&str, f64, f64)]) -> ExitCode {
        let bench = self.spec.bench;
        if let Err(e) = std::fs::write(&self.out, format!("{report}\n")) {
            eprintln!("{bench}: cannot write {}: {e}", self.out);
            return ExitCode::FAILURE;
        }
        println!("  wrote {}", self.out);
        if self.skip {
            println!("  perf and quality floors skipped ({SKIP_VAR} set)");
            return ExitCode::SUCCESS;
        }
        let mut held = true;
        for &(what, fresh, floor) in minimums {
            println!("  {what}: {fresh:.2} (floor {floor:.2})");
            held &= self.holds(what, fresh >= floor);
        }
        if let Some(path) = &self.baseline {
            let verdict = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))
                .and_then(|text| {
                    let base = Json::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?;
                    self.compare(report, &base)
                });
            match verdict {
                Ok(h) => held &= h,
                Err(e) => {
                    eprintln!("{bench}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if held {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// Compares `fresh` with `base` under the spec: `Ok(false)` when a
    /// floor is broken, `Ok(true)` when all hold or the configs differ.
    fn compare(&self, fresh: &Json, base: &Json) -> Result<bool, String> {
        let spec = self.spec;
        if let Some(key) = spec
            .config
            .iter()
            .find(|k| lookup(fresh, k) != lookup(base, k))
        {
            println!(
                "  baseline was produced with a different config ('{key}' differs) — \
                 regression check skipped; regenerate the baseline"
            );
            return Ok(true);
        }
        let mut held = true;
        for &(path, floor) in spec.floors {
            let number = |json| lookup(json, path).and_then(Json::as_f64);
            let (Some(now), Some(was)) = (number(fresh), number(base)) else {
                return Err(format!("no number at '{path}' in the report or baseline"));
            };
            let min = floor.below(was);
            println!("  {path}: fresh {now:.2} vs baseline {was:.2} (floor {min:.2})");
            if floor == Floor::Advisory {
                if now < min {
                    println!("  note: below the floor, but not gated — slower hardware");
                }
            } else {
                held &= self.holds(path, now >= min);
            }
        }
        Ok(held)
    }

    fn holds(&self, what: &str, ok: bool) -> bool {
        if !ok {
            eprintln!(
                "{}: REGRESSION — {what} is below its floor ({SKIP_VAR}=1 \
                 bypasses the floors on cold machines)",
                self.spec.bench
            );
        }
        ok
    }
}

/// The member of `json` at `path` (see [`Spec`] for the syntax).
fn lookup<'j>(json: &'j Json, path: &str) -> Option<&'j Json> {
    path.split('.')
        .try_fold(json, |node, seg| match seg.split_once('[') {
            None => node.get(seg),
            Some((name, select)) => {
                let (key, value) = select.strip_suffix(']')?.split_once('=')?;
                node.get(name)?
                    .as_array()?
                    .iter()
                    .find(|e| e.get(key).and_then(Json::as_str) == Some(value))
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: [&Spec; 5] = [&FSIM, &ATPG, &TIMING, &BIST, &SERVER];

    fn gate(spec: &'static Spec) -> Gate {
        Gate::parse(spec, [], None).unwrap()
    }

    fn committed(spec: &Spec) -> Json {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), spec.file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// `json` with the number at `path` multiplied by `factor`.
    fn scaled(json: &Json, path: &str, factor: f64) -> Json {
        let mut copy = json.clone();
        let mut node = &mut copy;
        for seg in path.split('.') {
            let (name, select) = seg.split_once('[').unwrap_or((seg, ""));
            let Json::Obj(members) = node else {
                panic!("{path}")
            };
            node = &mut members.iter_mut().find(|(k, _)| k == name).expect(path).1;
            if let Some((key, value)) = select.strip_suffix(']').and_then(|s| s.split_once('=')) {
                let Json::Arr(items) = node else {
                    panic!("{path}")
                };
                let pick = |e: &&mut Json| e.get(key).and_then(Json::as_str) == Some(value);
                node = items.iter_mut().find(pick).expect(path);
            }
        }
        *node = Json::Num(node.as_f64().expect(path) * factor);
        copy
    }

    #[test]
    fn floor_arithmetic() {
        assert!((Floor::Relative(TOLERANCE).below(2451.0) - 1960.8).abs() < 1e-9);
        assert!((Floor::Relative(0.10).below(8.0) - 7.2).abs() < 1e-9);
        assert!((Floor::Absolute(0.5).below(60.26) - 59.76).abs() < 1e-9);
        assert!((Floor::Advisory.below(100.0) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn only_out_and_check_are_flags() {
        let args = |a: &[&str]| Gate::parse(&FSIM, a.iter().map(|s| (*s).to_owned()), None);
        let g = args(&["--check", "b.json", "--out", "o.json"]).unwrap();
        assert_eq!(
            (g.out.as_str(), g.baseline.as_deref()),
            ("o.json", Some("b.json"))
        );
        assert_eq!(gate(&FSIM).out, "BENCH_fsim.json");
        assert!(gate(&FSIM).baseline.is_none());
        assert!(args(&["--flops", "8"])
            .unwrap_err()
            .contains("unknown flag '--flops'"));
        assert!(args(&["--out"]).unwrap_err().contains("expects a value"));
    }

    #[test]
    fn skip_switch_needs_a_non_empty_value() {
        let skip = |v: Option<&str>| Gate::parse(&ATPG, [], v.map(OsString::from)).unwrap().skip;
        assert!(!skip(None));
        assert!(!skip(Some("")));
        assert!(skip(Some("1")));
        assert!(skip(Some("0")));
    }

    #[test]
    fn paths_select_members_regardless_of_order() {
        let json = Json::parse(
            r#"{"flow":{"flops_per_domain":48},"flops_per_domain":120,
                "engines":[{"engine":"reference","fps":1},{"engine":"kernel","fps":2}]}"#,
        )
        .unwrap();
        let at = |p| lookup(&json, p).and_then(Json::as_f64);
        assert_eq!(at("flops_per_domain"), Some(120.0));
        assert_eq!(at("flow.flops_per_domain"), Some(48.0));
        assert_eq!(at("engines[engine=kernel].fps"), Some(2.0));
        assert_eq!(at("engines[engine=sharded].fps"), None);
        assert_eq!(at("engines[engine].fps"), None);
    }

    #[test]
    fn a_config_mismatch_skips_the_comparison() {
        let base = committed(&SERVER);
        let doubled = scaled(&base, "warm_over_cold", 2.0);
        assert_eq!(gate(&SERVER).compare(&base, &doubled), Ok(false));
        for key in SERVER.config {
            let other = scaled(&doubled, key, 2.0);
            assert_eq!(gate(&SERVER).compare(&base, &other), Ok(true), "{key}");
        }
    }

    #[test]
    fn committed_baselines_carry_every_gated_member() {
        for spec in SPECS {
            let base = committed(spec);
            let paths = spec.config.iter().chain(spec.floors.iter().map(|(p, _)| p));
            for path in paths {
                let value = lookup(&base, path).and_then(Json::as_f64);
                assert!(value.is_some(), "{} lacks '{path}'", spec.file);
            }
        }
        // The top-level member, not the nested flow job's 48.
        let server = committed(&SERVER);
        assert_eq!(
            lookup(&server, "flops_per_domain"),
            server.get("flops_per_domain")
        );
        let fsim = committed(&FSIM);
        let kernel = fsim.get("engines").and_then(Json::as_array).unwrap()[1].get("faults_per_sec");
        assert_eq!(
            lookup(&fsim, "engines[engine=kernel].faults_per_sec"),
            kernel
        );
    }

    #[test]
    fn committed_baselines_pass_themselves_and_fail_doubled() {
        for spec in SPECS {
            let base = committed(spec);
            assert_eq!(gate(spec).compare(&base, &base), Ok(true), "{}", spec.file);
            for &(path, floor) in spec.floors {
                let doubled = scaled(&base, path, 2.0);
                let held = gate(spec).compare(&base, &doubled);
                assert_eq!(held, Ok(floor == Floor::Advisory), "{} {path}", spec.file);
            }
        }
    }
}
