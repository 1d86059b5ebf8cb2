//! Sweep specifications: the JSON format behind `cni-run --sweep`, and
//! the one description of a run.
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
//! A single `cni-run` is a one-entry sweep: [`flag_entry`] turns its run
//! flags into an entry, which the same parser reads; `--app latency`
//! reads only its [`parse_config`] and `--fork-at` its [`parse_faults`].
//!
//! Parsing is strict: unknown keys, a size key the entry's app does not
//! read, malformed values, app sizes that fail [`App::check`] and
//! configurations that fail [`Config::check`] are reported with the run's
//! index rather than silently ignored or left to panic — a typo in a
//! 100-run sweep must not cost a night of compute.

use crate::cholesky::CholeskyMatrix;
use crate::experiments::App;
use cni::{Config, FaultPlan, NicKind};
use cni_batch::RunSpec;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Every key a sweep entry may carry. `cni-run` takes each but `label`
/// as a flag, `_` written `-` ([`run_key`]).
pub const KNOWN_KEYS: [&str; 20] = [
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

/// The keys that size an app. Each app reads its own and refuses the
/// others.
pub const SIZE_KEYS: [&str; 5] = ["n", "iters", "molecules", "steps", "matrix"];

/// The keys [`parse_faults`] reads.
pub const FAULT_KEYS: [&str; 4] = ["loss_prob", "corrupt_prob", "jitter_ps", "fault_seed"];

/// The keys that take `true` or `false`: their flags take no value.
pub const SWITCH_KEYS: [&str; 3] = ["jumbo", "tree_barrier", "collectives"];

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

/// The run key `--flag` sets: a key of [`KNOWN_KEYS`] but `label`, with
/// `-` for `_`.
pub fn run_key(flag: &str) -> Option<&'static str> {
    KNOWN_KEYS
        .into_iter()
        .find(|key| *key != "label" && key.replace('_', "-") == flag)
}

/// The sweep entry a command line's run flags describe, each flag mapped
/// to its value (`None` for a switch): `--page-bytes 4096` is
/// `"page_bytes": 4096`, a switch is `true`, and a value is a JSON number
/// when it parses as one and a string otherwise. Other flags are skipped.
pub fn flag_entry(flags: &BTreeMap<String, Option<String>>) -> Map {
    let mut entry = Map::new();
    for (flag, value) in flags {
        let Some(key) = run_key(flag) else { continue };
        let value = match value.as_deref().map(|v| (v, serde_json::from_str(v))) {
            None => Value::Bool(true),
            Some((_, Ok(n @ Value::Number(_)))) => n,
            Some((v, _)) => Value::String(v.to_string()),
        };
        entry.insert(key.to_string(), value);
    }
    entry
}

/// `key`'s value as `read` takes it, or `default` if the entry has none;
/// `what` names what `read` takes.
fn get<'a, T>(
    obj: &'a Map,
    key: &str,
    default: T,
    read: fn(&'a Value) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => read(v).ok_or_else(|| format!("`{key}` must be {what}")),
    }
}

fn get_u64(obj: &Map, key: &str, default: u64) -> Result<u64, String> {
    get(obj, key, default, Value::as_u64, "a non-negative integer")
}

fn get_f64(obj: &Map, key: &str, default: f64) -> Result<f64, String> {
    get(obj, key, default, Value::as_f64, "a number")
}

fn get_bool(obj: &Map, key: &str) -> Result<bool, String> {
    get(obj, key, false, Value::as_bool, "a boolean")
}

fn get_str<'a>(obj: &'a Map, key: &str, default: &'a str) -> Result<&'a str, String> {
    get(obj, key, default, Value::as_str, "a string")
}

/// Parse one sweep entry. `index` names the run when it has no `label`.
pub fn parse_entry(index: usize, v: &Value) -> Result<RunSpec<App>, String> {
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
    let (app, sizes): (App, &[&str]) = match app_name {
        "jacobi" => (
            App::Jacobi {
                n: get_u64(obj, "n", 256)? as usize,
                iters: get_u64(obj, "iters", 25)? as usize,
            },
            &["n", "iters"],
        ),
        "water" => (
            App::Water {
                molecules: get_u64(obj, "molecules", 216)? as usize,
                steps: get_u64(obj, "steps", 2)? as usize,
            },
            &["molecules", "steps"],
        ),
        "cholesky" => (
            App::Cholesky {
                matrix: match get_str(obj, "matrix", "bcsstk14")? {
                    "bcsstk14" => CholeskyMatrix::Bcsstk14,
                    "bcsstk15" => CholeskyMatrix::Bcsstk15,
                    other => return Err(format!("unknown matrix {other:?}")),
                },
            },
            &["matrix"],
        ),
        other => return Err(format!("unknown app {other:?} (jacobi|water|cholesky)")),
    };
    let unread = |key: &&str| obj.contains_key(key) && !sizes.contains(key);
    if let Some(key) = SIZE_KEYS.into_iter().find(unread) {
        return Err(format!("`{key}` does not size a {app_name} run"));
    }
    app.check()?;

    let cfg = parse_config(obj)?;
    let nic = get_str(obj, "nic", "cni")?;
    let label = match get(obj, "label", None, |v| v.as_str().map(Some), "a string")? {
        Some(label) => label.to_string(),
        None => format!("{index:03}-{app_name}-{}p-{nic}", cfg.procs),
    };
    Ok(RunSpec::new(label, cfg, app))
}

/// The configuration a sweep entry describes, its app aside: the
/// cluster, the interface and the fault plan, checked. A key left out
/// keeps [`Config::paper_default`]'s value.
pub fn parse_config(obj: &Map) -> Result<Config, String> {
    let mut cfg = Config::paper_default();
    cfg.atm.topology = get_str(obj, "topology", "single")?.parse()?;
    cfg.procs = get_u64(obj, "procs", cfg.procs as u64)? as usize;
    cfg.nic_kind = match get_str(obj, "nic", "cni")? {
        "cni" => NicKind::Cni,
        "standard" => NicKind::Standard,
        other => return Err(format!("unknown nic {other:?} (cni|standard)")),
    };

    let mut cfg = cfg
        .with_page_bytes(get_u64(obj, "page_bytes", cfg.page_bytes as u64)? as usize)
        .with_msg_cache_bytes(
            get_u64(obj, "msg_cache_bytes", cfg.nic.msg_cache_bytes as u64)? as usize,
        );
    cfg.seed = get_u64(obj, "seed", cfg.seed)?;
    if get_bool(obj, "jumbo")? {
        cfg = cfg.with_unrestricted_cells();
    }
    if get_bool(obj, "tree_barrier")? {
        cfg = cfg.with_tree_barrier();
    }
    if get_bool(obj, "collectives")? {
        cfg = cfg.with_collectives();
    }
    cfg = cfg.with_faults(parse_faults(obj)?);
    cfg.check()?;
    Ok(cfg)
}

/// The fault plan a sweep entry's [`FAULT_KEYS`] describe, checked. A
/// key left out keeps [`FaultPlan::none`]'s value.
pub fn parse_faults(obj: &Map) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    plan.drop_prob = get_f64(obj, "loss_prob", plan.drop_prob)?;
    plan.corrupt_prob = get_f64(obj, "corrupt_prob", plan.corrupt_prob)?;
    plan.jitter_ps = get_u64(obj, "jitter_ps", plan.jitter_ps)?;
    plan.seed = get_u64(obj, "fault_seed", plan.seed)?;
    plan.check()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;
    use std::collections::BTreeSet;

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
            (
                r#"[{"app":"water","molecules":8,"steps":1,"procs":2,"n":64,"iters":9,"matrix":"bcsstk15"}]"#,
                "run 0: `n` does not size a water run",
            ),
            (
                r#"[{"app": "cholesky", "iters": 9}]"#,
                "`iters` does not size a cholesky run",
            ),
            (
                r#"[{"app": "jacobi", "molecules": 8}]"#,
                "`molecules` does not size a jacobi run",
            ),
            (
                r#"[{"app": "cholesky", "steps": 1}]"#,
                "`steps` does not size a cholesky run",
            ),
            (
                r#"[{"app": "jacobi", "matrix": "bcsstk15"}]"#,
                "`matrix` does not size a jacobi run",
            ),
            (
                r#"[{"app": "water", "matrix": "bcsstk14"}]"#,
                "`matrix` does not size a water run",
            ),
        ] {
            let err = parse_sweep(spec).unwrap_err();
            assert!(err.contains(needle), "spec {spec}: {err}");
        }
    }

    /// A command line of run flags, each flag mapped to its value.
    fn flags(line: &str) -> BTreeMap<String, Option<String>> {
        let mut words = line.split_whitespace();
        let mut out = BTreeMap::new();
        while let Some(word) = words.next() {
            let flag = word.strip_prefix("--").expect("a flag");
            let key = run_key(flag).expect("a run flag");
            let value = (!SWITCH_KEYS.contains(&key)).then(|| words.next().expect("a value"));
            out.insert(flag.to_string(), value.map(str::to_string));
        }
        out
    }

    /// A command line that sets every run flag an app reads, and the sweep
    /// entry with the same keys, describe the same run. Together the
    /// three lines set every run flag.
    #[test]
    fn a_flag_line_and_its_entry_describe_the_same_run() {
        let common = "--procs 4 --nic cni --page-bytes 4096 --msg-cache-bytes 65536 \
                      --jumbo --topology 2x16x16 --tree-barrier --collectives --seed 7 \
                      --loss-prob 0.05 --corrupt-prob 0.01 --jitter-ps 1000 --fault-seed 3";
        let common_keys = r#""procs": 4, "nic": "cni", "page_bytes": 4096,
            "msg_cache_bytes": 65536, "jumbo": true, "topology": "2x16x16",
            "tree_barrier": true, "collectives": true, "seed": 7, "loss_prob": 0.05,
            "corrupt_prob": 0.01, "jitter_ps": 1000, "fault_seed": 3"#;
        let mut set = BTreeSet::new();
        for (app_flags, app_keys) in [
            (
                "--app jacobi --n 64 --iters 3",
                r#""app": "jacobi", "n": 64, "iters": 3"#,
            ),
            (
                "--app water --molecules 64 --steps 1",
                r#""app": "water", "molecules": 64, "steps": 1"#,
            ),
            (
                "--app cholesky --matrix bcsstk15",
                r#""app": "cholesky", "matrix": "bcsstk15""#,
            ),
        ] {
            let line = format!("{app_flags} {common}");
            let flags = flags(&line);
            set.extend(flags.keys().filter_map(|flag| run_key(flag)));
            let from_flags = parse_entry(0, &Value::Object(flag_entry(&flags))).unwrap();
            let from_json = &parse_sweep(&format!("[{{{app_keys}, {common_keys}}}]")).unwrap()[0];
            assert_eq!(from_flags.workload, from_json.workload, "{line}");
            assert_eq!(
                from_flags.config.to_value(),
                from_json.config.to_value(),
                "{line}"
            );
        }
        assert_eq!(set.len(), KNOWN_KEYS.len() - 1, "every key but `label`");
    }

    /// A flag's value is a JSON number when it parses as one and a string
    /// otherwise; a switch is `true`, and a flag that is not a run key is
    /// skipped.
    #[test]
    fn flag_values_become_numbers_strings_and_switches() {
        let mut flags = BTreeMap::new();
        for (flag, value) in [
            ("procs", Some("4")),
            ("loss-prob", Some("0.02")),
            ("seed", Some("0x5EED")),
            ("topology", Some("4x16x16")),
            ("jumbo", None),
            ("json", None),
            ("label", Some("x")),
            ("page_bytes", Some("4096")),
        ] {
            flags.insert(flag.to_string(), value.map(str::to_string));
        }
        let entry = flag_entry(&flags);
        assert_eq!(
            serde_json::to_string(&Value::Object(entry.clone())).unwrap(),
            r#"{"jumbo":true,"loss_prob":0.02,"procs":4,"seed":"0x5EED","topology":"4x16x16"}"#
        );
        let err = parse_config(&entry).unwrap_err();
        assert!(
            err.contains("`seed` must be a non-negative integer"),
            "{err}"
        );
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
