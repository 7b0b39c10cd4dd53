//! Artifact rendering: hand-rolled JSON and CSV.
//!
//! No serialization crates exist in this build environment, so the
//! emitters are written out longhand. Both formats are deterministic:
//! field order is fixed, floats use Rust's shortest-roundtrip `Display`
//! (a pure function of the value), and rows follow the grid order — the
//! byte-identical-across-thread-counts guarantee extends to these
//! artifacts.
//!
//! The module also owns the durable end of the pipeline:
//! [`write_artifact`], the write-temp-then-rename path every rendered
//! artifact goes through so a crash can never leave a truncated file
//! that a later resume would mistake for a complete one.

use crate::engine::{CampaignResult, CellSummary};
use crate::spec::{repair_label, Trial, TrialRecord};
use dsnet_codec::write_escaped;
use dsnet_metrics::Summary;
use std::fmt::Write;
use std::io::Write as _;
use std::path::Path;

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

fn csv_opt_u64(v: Option<u64>) -> String {
    v.map_or(String::new(), |v| v.to_string())
}

/// JSON number for an `f64`: shortest-roundtrip decimal, with the
/// non-finite values (not valid JSON numbers) mapped to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_summary(out: &mut String, s: &Summary, percentiles: Option<(f64, f64)>) {
    let _ = write!(
        out,
        "{{\"mean\": {}, \"std\": {}, \"min\": {}, \"max\": {}",
        json_f64(s.mean),
        json_f64(s.std),
        json_f64(s.min),
        json_f64(s.max)
    );
    if let Some((p50, p90)) = percentiles {
        let _ = write!(
            out,
            ", \"p50\": {}, \"p90\": {}",
            json_f64(p50),
            json_f64(p90)
        );
    }
    out.push('}');
}

fn json_cell(out: &mut String, c: &CellSummary) {
    let _ = write!(
        out,
        "{{\"protocol\": \"{}\", \"channels\": {}, \"failure\": \"{}\", \"churn\": \"{}\", \"loss\": \"{}\", \"repair\": \"{}\", \"mobility\": \"{}\", \"n\": {}, \"trials\": {}, \"completed\": {}, \"rounds\": ",
        c.protocol.name(),
        c.channels,
        c.failure.label(),
        c.churn.label(),
        c.loss.label(),
        repair_label(c.repair),
        c.mobility.label(),
        c.n,
        c.trials,
        c.completed
    );
    json_summary(out, &c.rounds, Some((c.rounds_p50, c.rounds_p90)));
    out.push_str(", \"delivery\": ");
    json_summary(out, &c.delivery, None);
    out.push_str(", \"delivery_alive\": ");
    json_summary(out, &c.delivery_alive, None);
    let _ = write!(out, ", \"repaired\": {}, \"repair_rounds\": ", c.repaired);
    match &c.repair_rounds {
        Some(s) => json_summary(out, s, None),
        None => out.push_str("null"),
    }
    out.push_str(", \"max_awake\": ");
    json_summary(out, &c.max_awake, None);
    out.push_str(", \"mean_awake\": ");
    json_summary(out, &c.mean_awake, None);
    out.push_str(", \"bound\": ");
    json_summary(out, &c.bound, None);
    match c.collisions {
        Some(total) => {
            let _ = write!(out, ", \"collisions\": {total}");
        }
        None => out.push_str(", \"collisions\": null"),
    }
    out.push_str(", \"reconfigs\": ");
    match &c.reconfigs {
        Some(s) => json_summary(out, s, None),
        None => out.push_str("null"),
    }
    out.push_str(", \"slot_churn\": ");
    match &c.slot_churn {
        Some(s) => json_summary(out, s, None),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn json_trial(out: &mut String, t: &Trial, r: &TrialRecord) {
    let _ = write!(
        out,
        "{{\"index\": {}, \"protocol\": \"{}\", \"channels\": {}, \"failure\": \"{}\", \"churn\": \"{}\", \"loss\": \"{}\", \"repair\": \"{}\", \"mobility\": \"{}\", \"n\": {}, \"rep\": {}, \"scenario_seed\": {}, \"stream_seed\": {}, \"rounds\": {}, \"delivered\": {}, \"targets\": {}, \"targets_alive\": {}, \"delivered_alive\": {}, \"t50\": {}, \"t90\": {}, \"t_full\": {}, \"repair_rounds\": {}, \"max_awake\": {}, \"mean_awake\": {}, \"collisions\": {}, \"bound\": {}, \"nodes\": {}, \"reconfigs\": {}, \"slot_churn\": {}}}",
        t.index,
        t.protocol.name(),
        t.channels,
        t.failure.label(),
        t.churn.label(),
        t.loss.label(),
        repair_label(t.repair),
        t.mobility.label(),
        t.n,
        t.rep,
        t.scenario_seed,
        t.stream_seed,
        r.rounds,
        r.delivered,
        r.targets,
        r.targets_alive,
        r.delivered_alive,
        json_opt_u64(r.t50),
        json_opt_u64(r.t90),
        json_opt_u64(r.t_full),
        json_opt_u64(r.repair_rounds),
        r.max_awake,
        json_f64(r.mean_awake),
        json_opt_u64(r.collisions),
        r.bound,
        r.nodes,
        json_opt_u64(r.reconfigs),
        json_opt_u64(r.slot_churn)
    );
}

/// Render the full campaign result as a JSON document.
///
/// `include_trials` additionally embeds the per-trial records (one object
/// per trial, in identity order) next to the cell aggregates.
pub fn render_json(result: &CampaignResult, include_trials: bool) -> String {
    let spec = &result.spec;
    let mut out = String::from("{\n  \"campaign\": \"");
    write_escaped(&mut out, &spec.name);
    let _ = write!(
        out,
        "\",\n  \"base_seed\": {},\n  \"field_side\": {},\n  \"reps\": {},\n  \"record_trace\": {},\n",
        spec.base_seed,
        json_f64(spec.field_side),
        spec.reps,
        spec.record_trace
    );
    out.push_str("  \"axes\": {\"protocols\": [");
    push_list(
        &mut out,
        spec.protocols.iter().map(|p| format!("\"{}\"", p.name())),
    );
    out.push_str("], \"channels\": [");
    push_list(&mut out, spec.channels.iter().map(|c| c.to_string()));
    out.push_str("], \"failures\": [");
    push_list(
        &mut out,
        spec.failures.iter().map(|f| format!("\"{}\"", f.label())),
    );
    out.push_str("], \"churn\": [");
    push_list(
        &mut out,
        spec.churn.iter().map(|c| format!("\"{}\"", c.label())),
    );
    out.push_str("], \"losses\": [");
    push_list(
        &mut out,
        spec.losses.iter().map(|l| format!("\"{}\"", l.label())),
    );
    out.push_str("], \"repair\": [");
    push_list(
        &mut out,
        spec.repair
            .iter()
            .map(|&r| format!("\"{}\"", repair_label(r))),
    );
    out.push_str("], \"mobility\": [");
    push_list(
        &mut out,
        spec.mobility.iter().map(|m| format!("\"{}\"", m.label())),
    );
    out.push_str("], \"ns\": [");
    push_list(&mut out, spec.ns.iter().map(|n| n.to_string()));
    let _ = write!(
        out,
        "]}},\n  \"trial_count\": {},\n  \"cells\": [\n",
        result.trials.len()
    );
    for (i, cell) in result.cells.iter().enumerate() {
        out.push_str("    ");
        json_cell(&mut out, cell);
        out.push_str(if i + 1 < result.cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]");
    if include_trials {
        out.push_str(",\n  \"trials\": [\n");
        for (i, (t, r)) in result.trials.iter().zip(&result.records).enumerate() {
            out.push_str("    ");
            json_trial(&mut out, t, r);
            out.push_str(if i + 1 < result.trials.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    out
}

fn push_list(out: &mut String, items: impl Iterator<Item = String>) {
    let mut first = true;
    for item in items {
        if !first {
            out.push_str(", ");
        }
        out.push_str(&item);
        first = false;
    }
}

/// Render the per-cell aggregates as CSV (header + one row per cell).
pub fn render_csv(result: &CampaignResult) -> String {
    let mut out = String::from(
        "protocol,channels,failure,churn,loss,repair,mobility,n,trials,completed,\
         rounds_mean,rounds_std,rounds_min,rounds_p50,rounds_p90,rounds_max,\
         delivery_mean,delivery_min,delivery_alive_mean,delivery_alive_min,\
         repaired,repair_rounds_mean,max_awake_mean,max_awake_max,\
         mean_awake_mean,bound_mean,collisions,reconfigs_mean,slot_churn_mean\n",
    );
    for c in &result.cells {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            c.protocol.name(),
            c.channels,
            c.failure.label(),
            c.churn.label(),
            c.loss.label(),
            repair_label(c.repair),
            c.mobility.label(),
            c.n,
            c.trials,
            c.completed,
            c.rounds.mean,
            c.rounds.std,
            c.rounds.min,
            c.rounds_p50,
            c.rounds_p90,
            c.rounds.max,
            c.delivery.mean,
            c.delivery.min,
            c.delivery_alive.mean,
            c.delivery_alive.min,
            c.repaired,
            c.repair_rounds
                .as_ref()
                .map_or(String::new(), |s| s.mean.to_string()),
            c.max_awake.mean,
            c.max_awake.max,
            c.mean_awake.mean,
            c.bound.mean,
            c.collisions.map_or(String::new(), |v| v.to_string()),
            c.reconfigs
                .as_ref()
                .map_or(String::new(), |s| s.mean.to_string()),
            c.slot_churn
                .as_ref()
                .map_or(String::new(), |s| s.mean.to_string()),
        );
    }
    out
}

/// Render every trial as CSV (header + one row per trial, identity order).
pub fn render_trials_csv(result: &CampaignResult) -> String {
    let mut out = String::from(
        "index,protocol,channels,failure,churn,loss,repair,mobility,n,rep,scenario_seed,stream_seed,\
         rounds,delivered,targets,targets_alive,delivered_alive,t50,t90,t_full,\
         repair_rounds,max_awake,mean_awake,collisions,bound,nodes,reconfigs,slot_churn\n",
    );
    for (t, r) in result.trials.iter().zip(&result.records) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            t.index,
            t.protocol.name(),
            t.channels,
            t.failure.label(),
            t.churn.label(),
            t.loss.label(),
            repair_label(t.repair),
            t.mobility.label(),
            t.n,
            t.rep,
            t.scenario_seed,
            t.stream_seed,
            r.rounds,
            r.delivered,
            r.targets,
            r.targets_alive,
            r.delivered_alive,
            csv_opt_u64(r.t50),
            csv_opt_u64(r.t90),
            csv_opt_u64(r.t_full),
            csv_opt_u64(r.repair_rounds),
            r.max_awake,
            r.mean_awake,
            csv_opt_u64(r.collisions),
            r.bound,
            r.nodes,
            csv_opt_u64(r.reconfigs),
            csv_opt_u64(r.slot_churn)
        );
    }
    out
}

/// Durably write a campaign artifact: write-temp, fsync, rename.
///
/// A crash mid-write must never leave a truncated `.json`/`.csv` at the
/// destination — a later `--resume` (or a human) would take the partial
/// file for a complete artifact. The bytes land in a `<name>.tmp`
/// sibling first, are fsync'd, and only then atomically renamed over
/// `path`; the destination therefore always holds either the previous
/// complete artifact or the new one, never a torn intermediate. The
/// parent directory is fsync'd afterwards so the rename itself is
/// durable.
pub fn write_artifact(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Directory fsync is advisory on some filesystems; failure to
        // open the directory is not a failure to write the artifact.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_campaign;
    use crate::spec::{CampaignSpec, ProtocolSpec, Trial, TrialRecord};

    fn synthetic(trial: &Trial) -> TrialRecord {
        let h = trial.scenario_seed ^ trial.stream_seed;
        TrialRecord {
            rounds: 10 + h % 50,
            delivered: trial.n as u64,
            targets: trial.n as u64,
            targets_alive: trial.n as u64,
            delivered_alive: trial.n as u64,
            t50: Some(4),
            t90: Some(9),
            t_full: Some(10 + h % 50),
            repair_rounds: None,
            max_awake: 7,
            mean_awake: 3.25,
            collisions: Some(0),
            bound: 99,
            nodes: trial.n as u64,
            reconfigs: None,
            slot_churn: None,
        }
    }

    fn result() -> crate::engine::CampaignResult {
        let mut spec = CampaignSpec::new("render-test");
        spec.protocols = vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo];
        spec.ns = vec![20];
        spec.reps = 2;
        run_campaign(&spec, &synthetic, 2, None)
    }

    #[test]
    fn json_is_stable_and_self_consistent() {
        let r = result();
        let a = render_json(&r, true);
        let b = render_json(&r, true);
        assert_eq!(a, b);
        assert!(a.contains("\"campaign\": \"render-test\""));
        assert!(a.contains("\"trial_count\": 4"));
        assert!(a.contains("\"collisions\": 0"));
        assert!(a.contains("\"p50\""));
        // Without trials the trial array is absent.
        assert!(!render_json(&r, false).contains("\"trials\": ["));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn csv_has_one_row_per_cell_and_trial() {
        let r = result();
        let cells = render_csv(&r);
        assert_eq!(cells.lines().count(), 1 + r.cells.len());
        assert!(cells.starts_with("protocol,"));
        let trials = render_trials_csv(&r);
        assert_eq!(trials.lines().count(), 1 + r.trials.len());
        for (i, line) in trials.lines().skip(1).enumerate() {
            assert!(line.starts_with(&format!("{i},")));
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn artifact_writes_replace_atomically() {
        let dir = std::env::temp_dir().join(format!("dsnet-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("artifact.json");
        write_artifact(&path, b"first complete artifact").expect("write");
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"first complete artifact"
        );
        write_artifact(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        // The temp sibling never survives a completed write.
        assert!(!dir.join("artifact.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
