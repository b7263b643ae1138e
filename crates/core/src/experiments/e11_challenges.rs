//! E11 — the §6 challenges, quantified.
//!
//! * **Asymmetric node selection**: "the path from node A to node B is the
//!   shortest for node A, but at the same time the path from node B to
//!   node A is not the shortest for B. […] the asymmetry of peer selection
//!   results in less precise underlay measurements." We sweep an
//!   asymmetry factor and measure the precision of closest-peer selection
//!   based on one-way forward measurements.
//! * **Long hop**: "one single hop may represent a big distance in terms
//!   of delay". On a topology with one intercontinental link we measure
//!   how often AS-hop-based proximity picks a peer that is far in delay,
//!   and the latency penalty it pays versus true-RTT selection.
//! * **Mobile support**: "some underlay provided information such as
//!   ISP-location and latency no longer apply because of continuous
//!   variation". We cache ISP locations, migrate a fraction of peers to
//!   other ASes, and measure how the stale cache degrades biased
//!   selection.

use super::table::{ensure, num, Scale};
use crate::experiments::NetParams;
use crate::report::{f, pct, Table};
use uap_net::{
    AsId, GeoPoint, HostId, PopulationSpec, RoutingMode, Tier, Underlay, UnderlayConfig,
};
use uap_sim::{SimRng, Tracer};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Asymmetry factors to sweep.
    pub asymmetry: Vec<f64>,
    /// Fractions of mobile peers to sweep.
    pub mobility: Vec<f64>,
    /// Selection trials per point.
    pub trials: usize,
    /// Candidate-set size per trial.
    pub candidates: usize,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(150, seed),
            asymmetry: vec![1.0, 2.0],
            mobility: vec![0.0, 0.3],
            trials: 60,
            candidates: 15,
        }
    }

    /// Paper-scale instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams::full(seed),
            asymmetry: vec![1.0, 1.25, 1.5, 2.0, 3.0],
            mobility: vec![0.0, 0.1, 0.2, 0.3, 0.5],
            trials: 400,
            candidates: 25,
        }
    }
}

/// (a) Asymmetric node selection: precision of forward-only measurement.
pub fn run_asymmetry(p: &Params) -> Table {
    let mut table = Table::new(
        "§6(a) — asymmetric node selection",
        &["asymmetry factor", "precision@1", "mean RTT penalty"],
    );
    for &a in &p.asymmetry {
        let mut rng = SimRng::new(p.net.seed ^ 0xE11A);
        let mut underlay = p.net.build();
        underlay.config.asymmetry = a;
        let n = underlay.n_hosts();
        let mut correct = 0usize;
        let mut penalty = 0.0;
        for _ in 0..p.trials {
            let me = HostId(rng.index(n) as u32);
            let cands: Vec<HostId> = rng
                .sample_indices(n, p.candidates + 1)
                .into_iter()
                .map(|i| HostId(i as u32))
                .filter(|&h| h != me)
                .take(p.candidates)
                .collect();
            // Node selects by its own forward one-way measurement…
            let chosen = *cands
                .iter()
                .min_by_key(|&&c| underlay.latency_directional_us(me, c).unwrap_or(u64::MAX))
                .expect("non-empty candidates"); // lint:allow(expect)
                                                 // …but what matters is the true round trip.
            let best = *cands
                .iter()
                .min_by_key(|&&c| underlay.rtt_us(me, c).unwrap_or(u64::MAX))
                .expect("non-empty candidates"); // lint:allow(expect)
            if chosen == best {
                correct += 1;
            }
            // lint:allow(expect) — both hosts were sampled from the connected graph
            let rc = underlay.rtt_us(me, chosen).expect("connected") as f64;
            // lint:allow(expect)
            let rb = underlay.rtt_us(me, best).expect("connected") as f64;
            penalty += rc / rb;
        }
        table.row(&[
            format!("{a:.2}"),
            pct(correct as f64 / p.trials as f64),
            f(penalty / p.trials as f64),
        ]);
    }
    table
}

/// (b) The long-hop problem: hop-count proximity vs true delay on a
/// topology with an intercontinental link.
pub fn run_long_hop(p: &Params) -> Table {
    let mut rng = SimRng::new(p.net.seed ^ 0xE11B);
    // Two regional clusters bridged by one very long link: a classic
    // intercontinental layout. 3 ASes per side around their hub.
    let mut g = uap_net::AsGraph::new();
    let hub_w = g.add_as(Tier::Tier1, GeoPoint::new(500.0, 500.0), 100.0);
    let hub_e = g.add_as(Tier::Tier1, GeoPoint::new(9_500.0, 500.0), 100.0);
    // One hop, 9 000 km — tens of milliseconds.
    g.add_peering(hub_w, hub_e, 45_000, 100_000.0);
    for (hub, x) in [(hub_w, 300.0), (hub_e, 9_300.0)] {
        for i in 0..3 {
            let a = g.add_as(
                Tier::Tier3,
                GeoPoint::new(x + i as f64 * 150.0, 300.0),
                40.0,
            );
            g.add_transit(hub, a, 2_000, 10_000.0);
        }
    }
    let underlay = Underlay::build(
        g,
        &PopulationSpec::leaf(p.net.n_hosts.min(200)),
        UnderlayConfig {
            routing: RoutingMode::ValleyFree,
            ..Default::default()
        },
        &mut rng,
    );
    let n = underlay.n_hosts();
    let mut mismatches = 0usize;
    let mut penalty_sum = 0.0;
    let mut worst: f64 = 1.0;
    for _ in 0..p.trials {
        let me = HostId(rng.index(n) as u32);
        let cands: Vec<HostId> = rng
            .sample_indices(n, p.candidates + 1)
            .into_iter()
            .map(|i| HostId(i as u32))
            .filter(|&h| h != me)
            .take(p.candidates)
            .collect();
        let by_hops = *cands
            .iter()
            .min_by_key(|&&c| (underlay.as_hops(me, c).unwrap_or(u32::MAX), c.0))
            .expect("non-empty"); // lint:allow(expect)
        let by_rtt = *cands
            .iter()
            .min_by_key(|&&c| underlay.rtt_us(me, c).unwrap_or(u64::MAX))
            .expect("non-empty"); // lint:allow(expect)
                                  // lint:allow(expect) — both hosts were sampled from the connected graph
        let r_hops = underlay.rtt_us(me, by_hops).expect("connected") as f64;
        // lint:allow(expect)
        let r_best = underlay.rtt_us(me, by_rtt).expect("connected") as f64;
        if by_hops != by_rtt {
            mismatches += 1;
        }
        let ratio = r_hops / r_best;
        penalty_sum += ratio;
        worst = worst.max(ratio);
    }
    let mut table = Table::new(
        "§6(a) — the long-hop problem (hop-count vs delay proximity)",
        &["metric", "value"],
    );
    table.row(&[
        "hop-based pick differs from delay-based".into(),
        pct(mismatches as f64 / p.trials as f64),
    ]);
    table.row(&[
        "mean RTT penalty of hop-based pick".into(),
        f(penalty_sum / p.trials as f64),
    ]);
    table.row(&["worst RTT penalty".into(), f(worst)]);
    table
}

/// (c) Mobility: stale cached ISP-locations degrade biased selection.
pub fn run_mobility(p: &Params) -> Table {
    let mut table = Table::new(
        "§6(c) — mobile peers invalidate cached ISP-location",
        &[
            "mobile fraction",
            "stale cache entries",
            "biased-selection precision",
        ],
    );
    for &frac in &p.mobility {
        let mut rng = SimRng::new(p.net.seed ^ 0xE11C);
        let mut underlay = p.net.build();
        let n = underlay.n_hosts();
        // Cache everyone's ISP-location, then migrate a fraction.
        let cached: Vec<AsId> = underlay
            .hosts
            .ids()
            .map(|h| underlay.hosts.as_of(h))
            .collect();
        let movers = rng.sample_indices(n, (n as f64 * frac) as usize);
        for &m in &movers {
            let new_as = AsId(rng.index(underlay.n_ases()) as u16);
            underlay.migrate_host(HostId(m as u32), new_as, &mut rng);
        }
        let stale = underlay
            .hosts
            .ids()
            .filter(|&h| cached[h.idx()] != underlay.hosts.as_of(h))
            .count();
        // Biased selection using the stale cache: pick the candidate the
        // cache says shares my AS; precision = how often it truly does.
        let mut hits = 0usize;
        let mut applicable = 0usize;
        for _ in 0..p.trials {
            let me = HostId(rng.index(n) as u32);
            let my_cached = cached[me.idx()];
            let cands: Vec<HostId> = rng
                .sample_indices(n, p.candidates + 1)
                .into_iter()
                .map(|i| HostId(i as u32))
                .filter(|&h| h != me)
                .take(p.candidates)
                .collect();
            let pick = cands.iter().find(|&&c| cached[c.idx()] == my_cached);
            if let Some(&pick) = pick {
                applicable += 1;
                if underlay.same_as(me, pick) {
                    hits += 1;
                }
            }
        }
        let precision = if applicable == 0 {
            1.0
        } else {
            hits as f64 / applicable as f64
        };
        table.row(&[pct(frac), format!("{stale}/{n}"), pct(precision)]);
    }
    table
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let p = scale.params(seed, Params::quick, Params::full);
    let tables = vec![run_asymmetry(&p), run_long_hop(&p), run_mobility(&p)];
    let claim = claim(&tables[0], &tables[1], &tables[2]);
    super::Outcome::of(tables, claim)
}

/// §6 quantified: forward-only measurement is exact on symmetric paths
/// and loses precision under asymmetry; hop-count proximity mis-picks
/// across a long hop and pays for it in delay; a cached ISP-location map
/// is exact while nobody moves and degrades once peers migrate. The three
/// harnesses return only their tables, so the claim reads the cells.
pub fn claim(asym: &Table, hop: &Table, mob: &Table) -> Result<(), String> {
    ensure!(
        asym.len() >= 2 && mob.len() >= 2,
        "{} asymmetry and {} mobility rows",
        asym.len(),
        mob.len()
    );
    let prec = "precision@1";
    let (first, last) = (num(asym, 0, prec)?, num(asym, asym.len() - 1, prec)?);
    ensure!(first > 99.0, "symmetric precision {first}%");
    ensure!(last < first, "asymmetry did not hurt: {last}% vs {first}%");

    ensure!(hop.len() == 3, "{} long-hop rows", hop.len());
    let (mismatch, worst) = (num(hop, 0, "value")?, num(hop, 2, "value")?);
    ensure!(mismatch > 5.0, "hop/delay picks differ only {mismatch}%");
    ensure!(worst > 1.5, "worst long-hop RTT penalty only {worst}x");

    let moved = mob.len() - 1;
    let prec = "biased-selection precision";
    let (first, last) = (num(mob, 0, prec)?, num(mob, moved, prec)?);
    ensure!(first > 99.0, "static precision {first}%");
    ensure!(last < first, "mobility did not hurt: {last}% vs {first}%");
    let (stale0, stale) = (
        num(mob, 0, "stale cache entries")?,
        num(mob, moved, "stale cache entries")?,
    );
    ensure!(
        stale0 == 0.0 && stale > 0.0,
        "stale entries {stale0} -> {stale}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_hop_penalty_exists() {
        let p = Params::quick(62);
        let t = run_long_hop(&p);
        let mismatch: f64 = t.cell(0, 1).trim_end_matches('%').parse().unwrap();
        let worst: f64 = t.cell(2, 1).parse().unwrap();
        assert!(
            mismatch > 5.0,
            "no hop/delay mismatch observed: {mismatch}%"
        );
        assert!(worst > 1.5, "worst-case penalty too mild: {worst}");
    }

    #[test]
    fn mobility_staleness_grows_with_move_fraction() {
        let p = Params::quick(63);
        let t = run_mobility(&p);
        let prec = |r: usize| -> f64 { t.cell(r, 2).trim_end_matches('%').parse::<f64>().unwrap() };
        assert!(prec(0) > 99.0, "static precision {}", prec(0));
        assert!(prec(1) < prec(0));
        let stale0: u32 = t.cell(0, 1).split('/').next().unwrap().parse().unwrap();
        let stale1: u32 = t.cell(1, 1).split('/').next().unwrap().parse().unwrap();
        assert_eq!(stale0, 0);
        assert!(stale1 > 0);
    }
}
