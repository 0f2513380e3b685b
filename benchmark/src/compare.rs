//! `bvl-bench compare A.jsonl B.jsonl`: the runs of two commits side by
//! side, one row per workload and metric, judged against the bounds in
//! `BENCHMARK.json`. Exits non-zero when a metric got worse by more than
//! its bound.

use crate::stats::quantile;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// How a metric is judged: its direction, and the share of A's median
/// by which B may be worse (`None` for per-layer metrics).
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
}

/// Metrics whose value a seed fixes: the same inputs give the same
/// value on every run. They are judged per seed, with no tolerance.
const PER_SEED: [&str; 2] = ["err_mean_pct", "err_gt2_frac"];

/// First quartile, median and third quartile.
fn summary(xs: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| quantile(xs, q))
}

fn load_rules(path: &str) -> Result<(Vec<String>, BTreeMap<String, Rule>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut order = Vec::new();
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc
            .get(section)
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or(format!("{path}: a {section} metric has no name"))?;
            let better = m.get("better").and_then(Value::as_str);
            order.push(name.to_string());
            rules.insert(
                name.to_string(),
                Rule {
                    lower_is_better: better != Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok((order, rules))
}

/// One run's value of a metric, with the run's seed.
type Sample = (u64, f64);

/// The correct runs of a ledger.
#[derive(Default)]
struct Ledger {
    /// `workload → metric → samples`.
    metrics: BTreeMap<String, BTreeMap<String, Vec<Sample>>>,
    /// `workload → the round counts its runs made`.
    rounds: BTreeMap<String, BTreeSet<u64>>,
}

fn load_runs(path: &str) -> Result<Ledger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut ledger = Ledger::default();
    let mut skipped = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if rec.get("correct").and_then(Value::as_bool) != Some(true) {
            skipped += 1;
            continue;
        }
        let workload = rec.get("workload").and_then(Value::as_str).unwrap_or("?");
        let seed = rec.get("seed").and_then(Value::as_u64).unwrap_or_default();
        if let Some(r) = rec.get("rounds").and_then(Value::as_u64) {
            ledger
                .rounds
                .entry(workload.to_string())
                .or_default()
                .insert(r);
        }
        let entry = ledger.metrics.entry(workload.to_string()).or_default();
        if let Some(Value::Map(ms)) = rec.get("metrics") {
            for (name, m) in ms {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    entry.entry(name.clone()).or_default().push((seed, v));
                }
            }
        }
    }
    if skipped > 0 {
        eprintln!("{path}: left out {skipped} run(s) whose checks failed");
    }
    Ok(ledger)
}

/// The verdict on one metric of one workload. A [`PER_SEED`] metric is
/// compared run against run at every seed both sides ran: any run of B
/// worse than a run of A at the same seed is `WORSE`. Without a common
/// seed it falls back to the bound and says `unpaired` for `unchanged`.
fn judge(rule: &Rule, per_seed: bool, a: &[Sample], b: &[Sample]) -> (f64, &'static str) {
    let values = |xs: &[Sample]| xs.iter().map(|s| s.1).collect::<Vec<f64>>();
    let (va, vb) = (values(a), values(b));
    let (sa, sb) = (summary(&va), summary(&vb));
    // Positive change means B is worse.
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let change = sign * (sb[1] - sa[1]) / sa[1].abs();
    let Some(bound) = rule.bound else {
        return (change, "");
    };
    if per_seed {
        let diffs: Vec<f64> = a
            .iter()
            .flat_map(|&(sa, x)| {
                b.iter()
                    .filter(move |&&(sb, _)| sb == sa)
                    .map(move |&(_, y)| sign * (y - x))
            })
            .collect();
        if !diffs.is_empty() {
            let verdict = if diffs.iter().any(|&d| d > 0.0) {
                "WORSE"
            } else if diffs.iter().any(|&d| d < 0.0) {
                "better"
            } else {
                "unchanged"
            };
            return (change, verdict);
        }
    }
    let spread = ((sa[2] - sa[0]) / sa[1].abs()).max((sb[2] - sb[0]) / sb[1].abs());
    let all_better = va.iter().all(|&x| vb.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if change > bound {
        "WORSE"
    } else if all_better {
        "better"
    } else if spread > bound {
        "unresolved"
    } else if per_seed {
        "unpaired"
    } else {
        "unchanged"
    };
    (change, verdict)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bounds = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => bounds = it.next().ok_or("--bounds needs a path")?.clone(),
            f => files.push(f.to_string()),
        }
    }
    let [a_path, b_path] = &files[..] else {
        return Err("compare needs two run ledgers (runs.jsonl)".into());
    };
    let (order, rules) = load_rules(&bounds)?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);
    let fmt = |xs: &[Sample]| {
        let s = summary(&xs.iter().map(|x| x.1).collect::<Vec<f64>>());
        format!("{:.5} [{:.5}, {:.5}] n={}", s[1], s[0], s[2], xs.len())
    };
    println!(
        "{:<16} {:<24} {:<38} {:<38} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut worse = 0;
    let workloads: BTreeSet<&String> = a.metrics.keys().chain(b.metrics.keys()).collect();
    for w in workloads {
        let (ra, rb) = (a.rounds.get(w), b.rounds.get(w));
        if ra != rb {
            eprintln!(
                "{w}: the sides made different round counts ({ra:?} vs {rb:?}); \
                 their fastest-of timings do not compare"
            );
        }
        let (ma, mb) = (a.metrics.get(w), b.metrics.get(w));
        for name in &order {
            let (Some(xa), Some(xb)) = (ma.and_then(|m| m.get(name)), mb.and_then(|m| m.get(name)))
            else {
                continue;
            };
            let per_seed = PER_SEED.contains(&name.as_str());
            let (change, verdict) = judge(&rules[name], per_seed, xa, xb);
            worse += usize::from(verdict == "WORSE");
            println!(
                "{w:<16} {name:<24} {:<38} {:<38} {:>+7.1}%  {verdict}",
                fmt(xa),
                fmt(xb),
                change * 100.0
            );
        }
    }
    Ok(if worse > 0 {
        eprintln!("{worse} metric(s) worse than their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values at seeds 1, 2, ...
    fn seeded(xs: &[f64]) -> Vec<Sample> {
        (1..).zip(xs.iter().copied()).collect()
    }

    #[test]
    fn verdicts() {
        let lower = Rule {
            lower_is_better: true,
            bound: Some(0.1),
        };
        let a = seeded(&[1.0, 1.01, 0.99, 1.0]);
        let judge = |rule, b: &[f64]| judge(rule, false, &a, &seeded(b)).1;
        assert_eq!(judge(&lower, &[1.2, 1.21, 1.19, 1.2]), "WORSE");
        assert_eq!(judge(&lower, &[1.0, 1.02, 0.98, 1.01]), "unchanged");
        assert_eq!(judge(&lower, &[0.5, 0.51, 0.49, 0.5]), "better");
        assert_eq!(judge(&lower, &[0.6, 1.5, 0.7, 1.05]), "unresolved");
        let higher = Rule {
            lower_is_better: false,
            bound: Some(0.1),
        };
        assert_eq!(judge(&higher, &[0.5, 0.51, 0.49, 0.5]), "WORSE");
    }

    #[test]
    fn per_seed_metrics_allow_no_worsening_at_any_seed() {
        let rule = Rule {
            lower_is_better: true,
            bound: Some(0.24),
        };
        let a = seeded(&[12.0, 13.0, 12.5]);
        let judge = |b: &[Sample]| judge(&rule, true, &a, b).1;
        assert_eq!(judge(&a), "unchanged");
        // 1% worse at one seed only: far inside the bound, still worse.
        assert_eq!(judge(&seeded(&[12.0, 13.13, 12.5])), "WORSE");
        assert_eq!(judge(&seeded(&[11.0, 13.0, 12.5])), "better");
        // No seed in common: judged against the bound.
        assert_eq!(judge(&[(9, 12.4), (10, 12.6)]), "unpaired");
        assert_eq!(judge(&[(9, 16.0), (10, 16.5)]), "WORSE");
    }
}
