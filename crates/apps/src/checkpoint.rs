//! Checkpointed runs, resume and what-if forking at the application level.
//!
//! This module glues the three layers of checkpoint/restore together:
//!
//! * `cni::snapshot` records a run's position — processor count, NIC
//!   personality, allocated pages, event index, fault plan and a digest
//!   of the report at that event — and resumes it by re-executing the
//!   prefix in a fresh [`World`];
//! * `cni-snap` owns the crash-safe on-disk container (magic, version,
//!   length, CRC-32, atomic rename);
//! * this module adds the **application metadata** — which [`App`] and
//!   which [`Config`] produced the snapshot — so `cni-run --resume FILE`
//!   can rebuild the identical world and programs without the user
//!   re-supplying any flags.
//!
//! A snapshot file's payload is an object `{ "meta": {...}, "state": ... }`
//! where `meta` carries the app and full configuration and `state` is the
//! record from [`World::take_snapshot`]. Resuming re-runs the app's
//! allocation sequence via [`crate::experiments::build_programs`] and hands
//! the record to [`World::resume_run`], which re-executes the run up to
//! the checkpoint and finishes it, so a resume costs one plain run. The
//! result is byte-identical to the uninterrupted run
//! (`tests/checkpoint_apps.rs` pins this).
//!
//! Every error is returned pre-rendered as a rustc-style diagnostic
//! (`error: ...\n  --> path\n  = help: ...`) ready to print to stderr;
//! nothing in this module panics on corrupt input.

use crate::cholesky::CholeskyMatrix;
use crate::experiments::{build_programs, App};
use cni::{Config, RunReport, World};
use serde::{Deserialize, Map, Number, Serialize, Value};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Render a rustc-style diagnostic for a snapshot problem that `cni-snap`'s
/// container layer did not itself produce (semantic errors: bad metadata,
/// mismatched world, failed replay).
pub fn render_semantic(path: &Path, msg: &str, help: &str) -> String {
    format!("error: {msg}\n  --> {}\n  = help: {help}\n", path.display())
}

fn app_to_value(app: App) -> Value {
    let mut m = Map::new();
    match app {
        App::Jacobi { n, iters } => {
            m.insert("app".into(), Value::String("jacobi".into()));
            m.insert("n".into(), Value::Number(Number::U64(n as u64)));
            m.insert("iters".into(), Value::Number(Number::U64(iters as u64)));
        }
        App::Water { molecules, steps } => {
            m.insert("app".into(), Value::String("water".into()));
            m.insert(
                "molecules".into(),
                Value::Number(Number::U64(molecules as u64)),
            );
            m.insert("steps".into(), Value::Number(Number::U64(steps as u64)));
        }
        App::Cholesky { matrix } => {
            m.insert("app".into(), Value::String("cholesky".into()));
            match matrix {
                CholeskyMatrix::Bcsstk14 => {
                    m.insert("matrix".into(), Value::String("bcsstk14".into()));
                }
                CholeskyMatrix::Bcsstk15 => {
                    m.insert("matrix".into(), Value::String("bcsstk15".into()));
                }
                CholeskyMatrix::Small { n, band } => {
                    m.insert("matrix".into(), Value::String("small".into()));
                    m.insert("n".into(), Value::Number(Number::U64(n as u64)));
                    m.insert("band".into(), Value::Number(Number::U64(band as u64)));
                }
                CholeskyMatrix::Mesh { rows, cols } => {
                    m.insert("matrix".into(), Value::String("mesh".into()));
                    m.insert("rows".into(), Value::Number(Number::U64(rows as u64)));
                    m.insert("cols".into(), Value::Number(Number::U64(cols as u64)));
                }
            }
        }
    }
    Value::Object(m)
}

fn app_from_value(v: &Value) -> Result<App, String> {
    let obj = v
        .as_object()
        .ok_or("snapshot app metadata is not an object")?;
    let u = |key: &str| -> Result<usize, String> {
        obj.get(key)
            .and_then(Value::as_u64)
            .map(|x| x as usize)
            .ok_or_else(|| format!("snapshot app metadata is missing `{key}`"))
    };
    match obj.get("app").and_then(Value::as_str) {
        Some("jacobi") => Ok(App::Jacobi {
            n: u("n")?,
            iters: u("iters")?,
        }),
        Some("water") => Ok(App::Water {
            molecules: u("molecules")?,
            steps: u("steps")?,
        }),
        Some("cholesky") => Ok(App::Cholesky {
            matrix: match obj.get("matrix").and_then(Value::as_str) {
                Some("bcsstk14") => CholeskyMatrix::Bcsstk14,
                Some("bcsstk15") => CholeskyMatrix::Bcsstk15,
                Some("small") => CholeskyMatrix::Small {
                    n: u("n")?,
                    band: u("band")?,
                },
                Some("mesh") => CholeskyMatrix::Mesh {
                    rows: u("rows")?,
                    cols: u("cols")?,
                },
                other => return Err(format!("unknown snapshot matrix {other:?}")),
            },
        }),
        other => Err(format!("unknown snapshot app {other:?}")),
    }
}

/// Wrap an engine checkpoint record with the app/config metadata that
/// makes a snapshot self-describing.
fn payload_value(app: App, cfg: &Config, state: Value) -> Value {
    let mut meta = Map::new();
    meta.insert("app".into(), app_to_value(app));
    meta.insert("config".into(), cfg.to_value());
    let mut payload = Map::new();
    payload.insert("meta".into(), Value::Object(meta));
    payload.insert("state".into(), state);
    Value::Object(payload)
}

/// A snapshot read back from disk: the run's app, its full configuration
/// and the engine's checkpoint record, plus the path for diagnostics.
#[derive(Debug)]
pub struct Snapshot {
    /// Application the checkpointed run was executing.
    pub app: App,
    /// Complete configuration of the checkpointed run (topology, NIC
    /// personality, seed, fault plan — everything).
    pub config: Config,
    /// Simulation events the parent run had dispatched at the checkpoint.
    pub events: u64,
    state: Value,
    path: PathBuf,
}

/// Read and validate a snapshot file. Container-level problems (bad magic,
/// torn write, CRC mismatch, unknown version) and metadata problems all
/// come back as rendered diagnostics.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, String> {
    let v = cni_snap::read_value(path).map_err(|e| e.render(&path.display().to_string()))?;
    let semantic = |msg: &str| {
        render_semantic(
            path,
            msg,
            "the container is intact but was not written by `cni-run --checkpoint-every`",
        )
    };
    let obj = v
        .as_object()
        .ok_or_else(|| semantic("snapshot payload is not an object"))?;
    let meta = obj
        .get("meta")
        .and_then(Value::as_object)
        .ok_or_else(|| semantic("snapshot payload has no `meta` object"))?;
    let app = meta
        .get("app")
        .ok_or_else(|| semantic("snapshot metadata has no `app`"))
        .and_then(|a| app_from_value(a).map_err(|e| semantic(&e)))?;
    let config = meta
        .get("config")
        .ok_or_else(|| semantic("snapshot metadata has no `config`"))
        .and_then(|c| {
            Config::from_value(c)
                .map_err(|e| semantic(&format!("snapshot configuration does not parse: {e}")))
        })?;
    config
        .check()
        .map_err(|e| semantic(&format!("snapshot configuration is invalid: {e}")))?;
    let state = obj
        .get("state")
        .cloned()
        .ok_or_else(|| semantic("snapshot payload has no `state`"))?;
    let events = state.get("events").and_then(Value::as_u64).unwrap_or(0);
    Ok(Snapshot {
        app,
        config,
        events,
        state,
        path: path.to_path_buf(),
    })
}

impl Snapshot {
    /// Resume the checkpointed run under its own configuration and run it
    /// to completion. The returned report is byte-identical (as JSON) to
    /// the uninterrupted run's.
    pub fn resume(&self) -> Result<RunReport, String> {
        self.resume_with(self.config)
    }

    /// Resume under `cfg` instead of the stored configuration — the
    /// `--fork-at` path. `cfg` may differ from the stored configuration
    /// only in the fault plan, the what-if axis (subject to the engine's
    /// faulty-snapshot-needs-a-faulty-plan rule), and in the ignored
    /// `engine_workers` field, which older builds set from
    /// `--engine-workers`. Anything else is an error.
    pub fn resume_with(&self, cfg: Config) -> Result<RunReport, String> {
        let refuse = |msg: &str| {
            render_semantic(
                &self.path,
                &format!("cannot resume: {msg}"),
                "the snapshot is intact but does not match this run's configuration",
            )
        };
        cfg.check().map_err(|e| refuse(&e))?;
        let same_experiment = cfg
            .with_faults(self.config.faults)
            .with_engine_workers(self.config.engine_workers);
        if same_experiment.to_value() != self.config.to_value() {
            return Err(refuse(
                "the configuration differs from the snapshot's in more than \
                 the fault plan and engine workers",
            ));
        }
        let mut world = World::new(cfg);
        let progs = build_programs(&mut world, self.app);
        world
            .resume_run(&self.state, progs)
            .map_err(|e| refuse(&e.to_string()))
    }
}

/// Result of a checkpointed run: the final report plus every snapshot
/// file written, in the order they were taken.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The run's report — byte-identical to an un-checkpointed run.
    pub report: RunReport,
    /// Paths of the snapshot files written, oldest first.
    pub snapshots: Vec<PathBuf>,
}

/// File name of the checkpoint taken after `events` dispatched events.
/// Zero-padded so lexical order is chronological order.
pub fn snapshot_file_name(events: u64) -> String {
    format!("ck-{events:012}.cnisnap")
}

/// The newest snapshot file in `dir` (by the chronological file name from
/// [`snapshot_file_name`]), if any.
pub fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    let mut best: Option<PathBuf> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let p = entry.path();
        let name = p.file_name()?.to_str()?.to_string();
        if name.starts_with("ck-")
            && name.ends_with(".cnisnap")
            && best.as_ref().is_none_or(|b| p > *b)
        {
            best = Some(p);
        }
    }
    best
}

/// Run `app` under `cfg`, writing a crash-safe snapshot into `dir` every
/// `every` dispatched simulation events. Snapshots land as
/// `dir/ck-<events>.cnisnap` via temp-file + rename, so an interrupted run
/// leaves only complete snapshots behind.
pub fn run_app_checkpointed(
    cfg: Config,
    app: App,
    every: u64,
    dir: &Path,
) -> Result<CheckpointedRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| {
        render_semantic(
            dir,
            &format!("cannot create checkpoint directory: {e}"),
            "check that the parent directory exists and is writable",
        )
    })?;
    let mut world = World::new(cfg);
    let progs = build_programs(&mut world, app);
    let written: Rc<RefCell<Vec<PathBuf>>> = Rc::new(RefCell::new(Vec::new()));
    let failed: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let (written_s, failed_s) = (written.clone(), failed.clone());
    let dir_s = dir.to_path_buf();
    world.set_checkpoint(
        every,
        Box::new(move |w: &World| {
            // After one write fails, stop checkpointing; the run itself
            // still completes and the error is reported at the end.
            if failed_s.borrow().is_some() {
                return;
            }
            let payload = payload_value(app, w.config(), w.take_snapshot());
            let path = dir_s.join(snapshot_file_name(w.events_dispatched()));
            match cni_snap::write_value(&path, &payload) {
                Ok(()) => written_s.borrow_mut().push(path),
                Err(e) => {
                    *failed_s.borrow_mut() = Some(e.render(&path.display().to_string()));
                }
            }
        }),
    );
    let report = world.run(progs);
    drop(world);
    if let Some(e) = failed.borrow_mut().take() {
        return Err(e);
    }
    let snapshots = Rc::try_unwrap(written)
        .expect("checkpoint sink dropped with world")
        .into_inner();
    Ok(CheckpointedRun { report, snapshots })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_metadata_round_trips() {
        for app in [
            App::Jacobi { n: 64, iters: 5 },
            App::Water {
                molecules: 27,
                steps: 1,
            },
            App::Cholesky {
                matrix: CholeskyMatrix::Bcsstk15,
            },
        ] {
            let v = app_to_value(app);
            let back = app_from_value(&v).unwrap();
            assert_eq!(format!("{app:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn bad_app_metadata_errors() {
        assert!(app_from_value(&Value::Null).is_err());
        let mut m = Map::new();
        m.insert("app".into(), Value::String("doom".into()));
        assert!(app_from_value(&Value::Object(m)).is_err());
        let mut m = Map::new();
        m.insert("app".into(), Value::String("jacobi".into()));
        let err = app_from_value(&Value::Object(m)).unwrap_err();
        assert!(err.contains("`n`"), "{err}");
    }

    #[test]
    fn snapshot_file_names_sort_chronologically() {
        assert!(snapshot_file_name(999) < snapshot_file_name(1000));
        assert!(snapshot_file_name(5) < snapshot_file_name(40));
    }
}
