//! Sweep specifications: the JSON format behind `cni-run --sweep`.
//!
//! A sweep file is a JSON array of run objects. Every field except `app`
//! is optional and defaults to `cni-run`'s single-run defaults, so a
//! minimal sweep is just `[{"app": "jacobi"}, {"app": "water"}]`:
//!
//! ```json
//! [
//!   {"label": "j64-cni", "app": "jacobi", "n": 64, "iters": 5,
//!    "procs": 4, "nic": "cni", "page_bytes": 2048, "seed": 24301},
//!   {"app": "water", "molecules": 64, "steps": 2, "procs": 8,
//!    "nic": "standard", "loss_prob": 0.01, "fault_seed": 7},
//!   {"app": "cholesky", "matrix": "bcsstk14", "jumbo": true}
//! ]
//! ```
//!
//! Parsing is strict: unknown keys, malformed values, app sizes that fail
//! [`App::check`] and configurations that fail [`Config::check`] are
//! reported with the run's index rather than silently ignored or left to
//! panic — a typo in a 100-run sweep must not cost a night of compute.

use crate::cholesky::CholeskyMatrix;
use crate::experiments::App;
use cni::{Config, FaultPlan};
use cni_batch::RunSpec;
use serde_json::Value;

/// Every key a sweep entry may carry.
const KNOWN_KEYS: &[&str] = &[
    "label",
    "app",
    "n",
    "iters",
    "molecules",
    "steps",
    "matrix",
    "procs",
    "nic",
    "page_bytes",
    "msg_cache_bytes",
    "jumbo",
    "topology",
    "tree_barrier",
    "collectives",
    "seed",
    "loss_prob",
    "corrupt_prob",
    "jitter_ps",
    "fault_seed",
];

/// Parse a sweep file into executable [`RunSpec`]s, one per array entry,
/// in file order (which is also the batch's job-index order).
pub fn parse_sweep(text: &str) -> Result<Vec<RunSpec<App>>, String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("sweep spec is not valid JSON: {e}"))?;
    let arr = v
        .as_array()
        .ok_or_else(|| "sweep spec must be a JSON array of run objects".to_string())?;
    if arr.is_empty() {
        return Err("sweep spec contains no runs".to_string());
    }
    arr.iter()
        .enumerate()
        .map(|(i, e)| parse_entry(i, e).map_err(|msg| format!("run {i}: {msg}")))
        .collect()
}

fn get_u64(obj: &serde_json::Map, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn get_f64(obj: &serde_json::Map, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn get_bool(obj: &serde_json::Map, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn get_str<'a>(obj: &'a serde_json::Map, key: &str, default: &'a str) -> Result<&'a str, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn parse_entry(index: usize, v: &Value) -> Result<RunSpec<App>, String> {
    let obj = v
        .as_object()
        .ok_or_else(|| "entry is not a JSON object".to_string())?;
    if let Some(unknown) = obj.keys().find(|k| !KNOWN_KEYS.contains(&k.as_str())) {
        return Err(format!(
            "unknown key `{unknown}` (known keys: {})",
            KNOWN_KEYS.join(", ")
        ));
    }

    let app_name = obj
        .get("app")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "missing required string `app` (jacobi|water|cholesky)".to_string())?;
    let app = match app_name {
        "jacobi" => App::Jacobi {
            n: get_u64(obj, "n", 256)? as usize,
            iters: get_u64(obj, "iters", 25)? as usize,
        },
        "water" => App::Water {
            molecules: get_u64(obj, "molecules", 216)? as usize,
            steps: get_u64(obj, "steps", 2)? as usize,
        },
        "cholesky" => App::Cholesky {
            matrix: match get_str(obj, "matrix", "bcsstk14")? {
                "bcsstk14" => CholeskyMatrix::Bcsstk14,
                "bcsstk15" => CholeskyMatrix::Bcsstk15,
                other => return Err(format!("unknown matrix {other:?}")),
            },
        },
        other => return Err(format!("unknown app {other:?} (jacobi|water|cholesky)")),
    };
    app.check()?;

    let mut cfg = Config::paper_default();
    cfg.atm.topology = match get_str(obj, "topology", "single")? {
        "single" => cni_atm::Topology::Single,
        s => s.parse()?,
    };
    let procs = get_u64(obj, "procs", 8)? as usize;
    cfg.procs = procs;
    let nic = get_str(obj, "nic", "cni")?;
    if !matches!(nic, "cni" | "standard") {
        return Err(format!("unknown nic {nic:?} (cni|standard)"));
    }

    let mut cfg = cfg
        .with_page_bytes(get_u64(obj, "page_bytes", 2048)? as usize)
        .with_msg_cache_bytes(get_u64(obj, "msg_cache_bytes", 32 * 1024)? as usize);
    cfg.seed = get_u64(obj, "seed", 0x5EED)?;
    if get_bool(obj, "jumbo")? {
        cfg = cfg.with_unrestricted_cells();
    }
    if get_bool(obj, "tree_barrier")? {
        cfg = cfg.with_tree_barrier();
    }
    if get_bool(obj, "collectives")? {
        cfg = cfg.with_collectives();
    }

    let mut plan = FaultPlan::none();
    plan.drop_prob = get_f64(obj, "loss_prob", 0.0)?;
    plan.corrupt_prob = get_f64(obj, "corrupt_prob", 0.0)?;
    plan.jitter_ps = get_u64(obj, "jitter_ps", 0)?;
    plan.seed = get_u64(obj, "fault_seed", 1)?;
    cfg = cfg.with_faults(plan);

    cfg = if nic == "cni" {
        cfg.cni()
    } else {
        cfg.standard()
    };
    cfg.check()?;

    let label = match obj.get("label") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| "`label` must be a string".to_string())?
            .to_string(),
        None => format!("{index:03}-{app_name}-{procs}p-{nic}"),
    };
    Ok(RunSpec::new(label, cfg, app))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_sweep_gets_defaults() {
        let specs = parse_sweep(r#"[{"app": "jacobi"}, {"app": "water"}]"#).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].config.procs, 8);
        assert_eq!(specs[0].config.seed, 0x5EED);
        assert!(matches!(
            specs[0].workload,
            App::Jacobi { n: 256, iters: 25 }
        ));
        assert!(matches!(
            specs[1].workload,
            App::Water {
                molecules: 216,
                steps: 2
            }
        ));
        assert_eq!(specs[0].label, "000-jacobi-8p-cni");
        assert_eq!(specs[1].label, "001-water-8p-cni");
    }

    #[test]
    fn full_entry_round_trips_every_knob() {
        let specs = parse_sweep(
            r#"[{"label": "x", "app": "cholesky", "matrix": "bcsstk15",
                 "procs": 4, "nic": "standard", "page_bytes": 4096,
                 "msg_cache_bytes": 65536, "jumbo": true, "tree_barrier": true,
                 "seed": 7, "loss_prob": 0.05, "corrupt_prob": 0.01,
                 "jitter_ps": 1000, "fault_seed": 3}]"#,
        )
        .unwrap();
        let s = &specs[0];
        assert_eq!(s.label, "x");
        assert_eq!(s.config.procs, 4);
        assert_eq!(s.config.seed, 7);
        assert_eq!(s.config.faults.drop_prob, 0.05);
        assert_eq!(s.config.faults.corrupt_prob, 0.01);
        assert_eq!(s.config.faults.jitter_ps, 1000);
        assert_eq!(s.config.faults.seed, 3);
    }

    #[test]
    fn topology_and_collectives_keys_parse() {
        let specs = parse_sweep(
            r#"[{"app": "jacobi", "topology": "4x16x16", "procs": 64,
                 "collectives": true}]"#,
        )
        .unwrap();
        let cfg = &specs[0].config;
        assert_eq!(
            cfg.atm.topology,
            cni_atm::Topology::FatTree {
                leaves: 4,
                down: 16,
                up: 16,
            }
        );
        assert_eq!(cfg.procs, 64);
        assert!(cfg.collectives);
        assert!(cfg.tree_barrier, "collectives imply the tree barrier");
    }

    #[test]
    fn strict_errors_name_the_run() {
        for (spec, needle) in [
            (r#"{"app": "jacobi"}"#, "array"),
            (r#"[]"#, "no runs"),
            (r#"[{"app": "jacobi", "porcs": 4}]"#, "unknown key `porcs`"),
            (r#"[{"n": 64}]"#, "missing required string `app`"),
            (r#"[{"app": "doom"}]"#, "unknown app"),
            (r#"[{"app": "jacobi", "procs": 64}]"#, "between 1 and 32"),
            (
                r#"[{"app": "jacobi", "topology": "3x16x16"}]"#,
                "power-of-two leaf count",
            ),
            (
                r#"[{"app": "jacobi", "topology": "mesh"}]"#,
                "`single` or `LxDxU`",
            ),
            (
                r#"[{"app": "jacobi", "topology": "4x16x16", "procs": 65}]"#,
                "between 1 and 64",
            ),
            (r#"[{"app": "jacobi", "nic": "fast"}]"#, "unknown nic"),
            (r#"[{"app": "jacobi", "loss_prob": 1.5}]"#, "[0, 1)"),
            (r#"[{"app": "jacobi", "procs": 0}]"#, "between 1 and 32"),
            (r#"[{"app": "jacobi", "page_bytes": 0}]"#, "page_bytes"),
            (
                r#"[{"app": "jacobi", "msg_cache_bytes": 1000000000000000000}]"#,
                "msg_cache_bytes",
            ),
            (r#"[{"app": "jacobi", "n": "big"}]"#, "non-negative integer"),
            (r#"[{"app": "jacobi"}, {"app": 3}]"#, "run 1"),
        ] {
            let err = parse_sweep(spec).unwrap_err();
            assert!(err.contains(needle), "spec {spec}: {err}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse_sweep(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 512 levels"), "{err}");
    }

    /// A `\u` escape of a high surrogate must be followed by one of a low
    /// surrogate. `\uD800\u0000` used to overflow an addition: a panic in
    /// debug builds, U+2400 in release builds.
    #[test]
    fn an_unpaired_surrogate_is_an_error_not_a_panic() {
        let err = parse_sweep(r#"[{"app": "\uD800\u0000"}]"#).unwrap_err();
        assert!(err.contains("unpaired surrogate"), "{err}");
        let runs = parse_sweep(r#"[{"app": "jacobi", "label": "\uD83D\uDE00"}]"#).unwrap();
        assert_eq!(runs[0].label, "\u{1F600}");
    }

    /// A size from outside is checked before anything is allocated: one
    /// bad entry used to abort the whole batch, finished jobs and all.
    #[test]
    fn app_sizes_are_bounded_before_any_run_is_built() {
        for (spec, needle) in [
            (
                r#"[{"app":"jacobi","n":16,"iters":1},{"app":"jacobi","n":4294967295,"iters":1}]"#,
                "run 1: `n` = 4294967295",
            ),
            (
                r#"[{"app":"jacobi","n":9223372036854775807}]"#,
                "run 0: `n`",
            ),
            (
                r#"[{"app":"jacobi","n":0}]"#,
                "run 0: `n` must be at least 1",
            ),
            (
                r#"[{"app":"water","molecules":1000000000}]"#,
                "run 0: `molecules`",
            ),
            (
                r#"[{"app":"water","molecules":0}]"#,
                "run 0: `molecules` must be at least 1",
            ),
        ] {
            let err = parse_sweep(spec).unwrap_err();
            assert!(err.contains(needle), "spec {spec}: {err}");
        }
        // The largest sizes under the bound still parse.
        parse_sweep(r#"[{"app":"jacobi","n":8192},{"app":"water","molecules":1560671}]"#).unwrap();
    }

    /// A `\u` escape is exactly four hex digits: `\u+041` used to decode
    /// as "A", because the digits went through `u32::from_str_radix`.
    #[test]
    fn a_signed_unicode_escape_is_an_error() {
        for label in [r"\u+041x", r"\u-041", r"\u 041", r"\u004"] {
            let spec = format!(r#"[{{"app": "jacobi", "label": "{label}"}}]"#);
            let err = parse_sweep(&spec).unwrap_err();
            assert!(err.contains("\\u escape"), "{label}: {err}");
        }
        let runs = parse_sweep(r#"[{"app": "jacobi", "label": "\u0041\u00e9"}]"#).unwrap();
        assert_eq!(runs[0].label, "Aé");
    }

    /// A repeated key keeps its first position and takes its last value.
    #[test]
    fn a_repeated_key_keeps_its_place_and_takes_the_last_value() {
        let v: Value = serde_json::from_str(r#"{"a":1,"b":2,"a":3,"c":4,"b":5,"a":6}"#).unwrap();
        assert_eq!(serde_json::to_string(&v).unwrap(), r#"{"a":6,"b":5,"c":4}"#);
        let runs = parse_sweep(r#"[{"app": "water", "n": 16, "app": "jacobi"}]"#).unwrap();
        assert_eq!(runs[0].workload, App::Jacobi { n: 16, iters: 25 });
    }

    /// Decoding an object took time quadratic in its member count: each
    /// member was checked against every earlier key, 2.45 s for a run
    /// entry with 40,000 extra keys in a release build.
    #[test]
    fn a_40k_key_entry_is_refused_in_under_a_second() {
        let keys: String = (0..40_000)
            .map(|i| format!(r#","extra_{i:05}":{i}"#))
            .collect();
        let spec = format!(r#"[{{"app": "jacobi"{keys}}}]"#);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(parse_sweep(&spec)));
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("a 40k-key entry took over a second to parse")
            .unwrap_err();
        assert!(err.contains("unknown key `extra_00000`"), "{err}");
    }

    #[test]
    fn a_one_mib_string_parses_in_under_a_second() {
        // The string scan used to re-validate the rest of the input for
        // every character: quadratic, about 9 s for 640k characters.
        let label = "é".repeat(1 << 19);
        let spec = format!(r#"[{{"app": "jacobi", "label": "{label}"}}]"#);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(parse_sweep(&spec)));
        let runs = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("a 1 MiB string took over a second to parse")
            .expect("the spec parses");
        assert_eq!(runs[0].label, label);
    }
}
