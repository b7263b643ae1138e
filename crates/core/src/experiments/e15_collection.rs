//! E15 (extension) — the ISP-location collection techniques of Figure 3,
//! head to head.
//!
//! The survey classifies *how* ISP-location can be collected (IP-to-ISP
//! mapping, the oracle, P4P's iTracker, CDN inference) but does not
//! compare them quantitatively. This harness does: the same neighbor-
//! selection workload is served by each technique, and we report the
//! quality of the selections (true AS-hops of the chosen peers) against
//! the messages each technique spent — the accuracy/overhead frontier an
//! implementer actually chooses on.

use super::table::{ensure, Scale};
use crate::experiments::NetParams;
use crate::report::{f, Table};
use uap_info::provider::{IspLocator, ProximityEstimator};
use uap_info::{
    Ip2IspService, OnoEstimator, Oracle, P4pEstimator, P4pService, PdistanceWeights, SimulatedCdn,
};
use uap_net::{HostId, Underlay};
use uap_sim::{trace::registry, SimRng, SimTime, Tracer};

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Selection tasks (each picks the best `want` of `candidates`).
    pub tasks: usize,
    /// Candidate-set size per task.
    pub candidates: usize,
    /// Neighbors picked per task.
    pub want: usize,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(150, seed),
            tasks: 60,
            candidates: 30,
            want: 4,
        }
    }

    /// Full instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams::full(seed),
            tasks: 500,
            candidates: 50,
            want: 4,
        }
    }
}

/// One technique's score.
#[derive(Clone, Debug)]
pub struct TechniqueResult {
    /// Technique name.
    pub name: String,
    /// Mean true AS-hops of the selected peers (lower = better locality).
    pub mean_selected_as_hops: f64,
    /// Messages the technique cost.
    pub messages: u64,
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// One entry per technique (random baseline first).
    pub techniques: Vec<TechniqueResult>,
    /// Rendered table.
    pub table: Table,
}

struct Task {
    who: HostId,
    candidates: Vec<HostId>,
}

fn make_tasks(u: &Underlay, p: &Params, rng: &mut SimRng) -> Vec<Task> {
    let n = u.n_hosts();
    (0..p.tasks)
        .map(|_| {
            let who = HostId::from_index(rng.index(n));
            let candidates: Vec<HostId> = rng
                .sample_indices(n, p.candidates + 1)
                .into_iter()
                .map(HostId::from_index)
                .filter(|&h| h != who)
                .take(p.candidates)
                .collect();
            Task { who, candidates }
        })
        .collect()
}

fn score(u: &Underlay, tasks: &[Task], selections: &[Vec<HostId>]) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (t, sel) in tasks.iter().zip(selections) {
        for &s in sel {
            sum += u.as_hops(t.who, s).unwrap_or(99) as f64;
            count += 1;
        }
    }
    sum / count.max(1) as f64
}

/// Runs the shoot-out.
pub fn run(p: &Params) -> Outcome {
    run_traced(p, &mut Tracer::disabled())
}

/// Like [`run`], but records the per-call collection cost of the oracle
/// technique (`info`/`oracle.rank`) into `tracer`, with one
/// `experiment`/`phase` marker (Info) per technique.
pub fn run_traced(p: &Params, tracer: &mut Tracer) -> Outcome {
    let u = p.net.build();
    let mut rng = SimRng::new(p.net.seed ^ 0xE15);
    let tasks = make_tasks(&u, p, &mut rng);
    let mut techniques = Vec::new();
    let phase = |t: &mut Tracer, name: &'static str| {
        t.emit(SimTime::ZERO, registry::EXPERIMENT_PHASE, |f| {
            f.str("name", name);
        });
    };

    // Random baseline: pick the first `want` (candidate order is random).
    {
        phase(tracer, "random");
        let selections: Vec<Vec<HostId>> = tasks
            .iter()
            .map(|t| t.candidates.iter().copied().take(p.want).collect())
            .collect();
        techniques.push(TechniqueResult {
            name: "random (no information)".into(),
            mean_selected_as_hops: score(&u, &tasks, &selections),
            messages: 0,
        });
    }
    // Oracle: exact per-query ranking.
    {
        phase(tracer, "oracle");
        let mut oracle = Oracle::new(usize::MAX);
        let selections: Vec<Vec<HostId>> = tasks
            .iter()
            .map(|t| {
                oracle
                    .rank_traced(&u, t.who, &t.candidates, SimTime::ZERO, tracer)
                    .into_iter()
                    .take(p.want)
                    .collect()
            })
            .collect();
        techniques.push(TechniqueResult {
            name: "isp oracle".into(),
            mean_selected_as_hops: score(&u, &tasks, &selections),
            messages: 2 * oracle.queries(),
        });
    }
    // P4P: cached p-distance maps.
    {
        phase(tracer, "p4p");
        let svc = P4pService::build(&u, PdistanceWeights::default());
        let mut est = P4pEstimator::new(&u, svc);
        let selections: Vec<Vec<HostId>> = tasks
            .iter()
            .map(|t| {
                est.rank(t.who, &t.candidates, &mut rng)
                    .into_iter()
                    .take(p.want)
                    .collect()
            })
            .collect();
        techniques.push(TechniqueResult {
            name: "p4p itracker (cached maps)".into(),
            mean_selected_as_hops: score(&u, &tasks, &selections),
            messages: est.overhead_messages(),
        });
    }
    // IP-to-ISP mapping: same-AS first, the rest in candidate order.
    {
        phase(tracer, "ip2isp");
        let mut mapping = Ip2IspService::build(&u, 1.0, SimRng::new(p.net.seed ^ 0x1731));
        let selections: Vec<Vec<HostId>> = tasks
            .iter()
            .map(|t| {
                let my = mapping.isp_of(t.who);
                let mut same: Vec<HostId> = t
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&c| mapping.isp_of(c) == my)
                    .collect();
                for &c in &t.candidates {
                    if same.len() >= p.want {
                        break;
                    }
                    if !same.contains(&c) {
                        same.push(c);
                    }
                }
                same.truncate(p.want);
                same
            })
            .collect();
        techniques.push(TechniqueResult {
            name: "ip2isp mapping (same-AS first)".into(),
            mean_selected_as_hops: score(&u, &tasks, &selections),
            messages: mapping.queries(),
        });
    }
    // CDN/Ono inference.
    {
        phase(tracer, "cdn-ono");
        let cdn = SimulatedCdn::deploy(&u, 6);
        let mut ono = OnoEstimator::new(&u, cdn, 30);
        let selections: Vec<Vec<HostId>> = tasks
            .iter()
            .map(|t| {
                ono.rank(t.who, &t.candidates, &mut rng)
                    .into_iter()
                    .take(p.want)
                    .collect()
            })
            .collect();
        techniques.push(TechniqueResult {
            name: "cdn/ono ratio maps".into(),
            mean_selected_as_hops: score(&u, &tasks, &selections),
            messages: ono.overhead_messages(),
        });
    }

    let mut table = Table::new(
        "E15 — ISP-location collection techniques, quality vs overhead",
        &["technique", "mean AS-hops of selections", "messages"],
    );
    for t in &techniques {
        table.row(&[
            t.name.clone(),
            f(t.mean_selected_as_hops),
            t.messages.to_string(),
        ]);
    }
    Outcome { techniques, table }
}

/// The [`super::TABLE`] row's run; its event count is messages spent.
pub fn experiment(scale: Scale, seed: u64, tracer: &mut Tracer) -> super::Outcome {
    let out = run_traced(&scale.params(seed, Params::quick, Params::full), tracer);
    let claim = claim(&out);
    super::Outcome {
        events: out.techniques.iter().map(|t| t.messages).sum(),
        ..super::Outcome::of(vec![out.table], claim)
    }
}

/// Figure 3's techniques on one frontier: every one of them selects
/// closer peers than no information does, none beats the oracle's
/// perfect information, and P4P's cached maps cost fewer messages than
/// the oracle's per-query round trips.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let by_name = |n: &str| {
        out.techniques
            .iter()
            .find(|t| t.name.starts_with(n))
            .ok_or_else(|| format!("missing {n}"))
    };
    let random = by_name("random")?;
    let oracle = by_name("isp oracle")?;
    let p4p = by_name("p4p")?;
    for t in [oracle, p4p, by_name("ip2isp")?, by_name("cdn/ono")?] {
        ensure!(
            t.mean_selected_as_hops < random.mean_selected_as_hops,
            "{} ({}) not better than random ({})",
            t.name,
            t.mean_selected_as_hops,
            random.mean_selected_as_hops
        );
        ensure!(
            t.mean_selected_as_hops >= oracle.mean_selected_as_hops - 1e-9,
            "{} ({}) beats the oracle ({})",
            t.name,
            t.mean_selected_as_hops,
            oracle.mean_selected_as_hops
        );
    }
    ensure!(
        p4p.messages < oracle.messages,
        "p4p spent {} messages, oracle {}",
        p4p.messages,
        oracle.messages
    );
    Ok(())
}
