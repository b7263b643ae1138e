//! `--pass=par` — parallel-region discipline pass.
//!
//! Checks every thread-spawn site in the workspace against the audited
//! [`crate::boundaries::PARALLEL_REGIONS`] manifest in both directions:
//! a spawn site without a manifest entry fails (undeclared parallelism),
//! and a manifest entry whose function no longer spawns fails as stale
//! (the stale check is gated on the entry's file being present in the
//! scanned corpus, so fixture roots don't report the real manifest).
//!
//! Each region's worker closures are then audited for determinism
//! hazards, both *direct* (hazard markers lexically inside the closure:
//! interior-mutability writes, atomics, locks, channel receives,
//! unordered float accumulation) and *transitive* (the same markers
//! — plus any `SimRng` method — in functions reachable from the worker's
//! calls, via the same over-approximate resolution as the other graph
//! passes).
//! A hazard class listed in the region's `audited_hazards` is accepted:
//! the manifest's merge-discipline text carries the determinism
//! argument. Everything else fails with a witness chain from the
//! enclosing function through the worker closure down to the hazard
//! site, `file:line` per hop.

use crate::analyze::graph::Graph;
use crate::analyze::parser::HazardKind;
use crate::analyze::Report;
use crate::boundaries::ParallelRegion;

/// Runs the parallel-region discipline pass over the built graph.
pub fn par_pass(g: &Graph, regions: &[ParallelRegion], report: &mut Report) {
    let norm = |file: &str| file.replace('\\', "/");
    let mut region_live = vec![false; regions.len()];

    for (i, f) in g.fns.iter().enumerate() {
        if f.is_test || f.spawns.is_empty() {
            continue;
        }
        let qual = f.qualname();
        let nf = norm(&f.file);
        let region = regions
            .iter()
            .position(|r| nf.ends_with(r.file) && r.function == qual);
        if let Some(ri) = region {
            region_live[ri] = true;
        }
        let audited: &[&str] = region.map(|ri| regions[ri].audited_hazards).unwrap_or(&[]);
        // When the region is declared, violations quote its claimed
        // merge discipline so the reviewer sees what argument the hazard
        // undermines.
        let discipline = region
            .map(|ri| format!(" (declared discipline: {})", regions[ri].discipline))
            .unwrap_or_default();

        if region.is_none() {
            for sp in &f.spawns {
                report.violations.push(format!(
                    "par: {}:{}: `{}` in `{qual}` is not declared in \
                     xtask::boundaries::PARALLEL_REGIONS — declare the region with its merge \
                     discipline (and audited hazard classes) or remove the spawn",
                    f.file, sp.line, sp.what
                ));
            }
        }

        for (si, sp) in f.spawns.iter().enumerate() {
            for (wi, w) in sp.workers.iter().enumerate() {
                let head = format!(
                    "  witness: {qual} ({}:{})\n    -> worker closure [spawned at {}:{}]\n",
                    f.file, f.line, f.file, w.line
                );

                // Direct hazards lexically inside the closure.
                for h in &w.hazards {
                    if audited.contains(&h.kind.name()) {
                        continue;
                    }
                    report.violations.push(format!(
                        "par: {}:{}: worker closure in `{qual}` hits `{}` ({} hazard) — \
                         workers must not touch scheduling-sensitive shared state; prove the \
                         merge deterministic and audit the class in PARALLEL_REGIONS, or \
                         restructure the region{discipline}\n{head}    -> {} @ {}:{}\n",
                        f.file,
                        h.line,
                        h.what,
                        h.kind.name(),
                        h.what,
                        f.file,
                        h.line
                    ));
                }

                // Transitive hazards: BFS from the worker's resolved calls.
                let Some(edges) = g.worker_edges.get(&(i, si, wi)) else {
                    continue;
                };
                let mut starts: Vec<usize> = edges.iter().map(|&(t, _)| t).collect();
                starts.sort_unstable();
                starts.dedup();
                if starts.is_empty() {
                    continue;
                }
                let (dist, parent) = g.reach_from(&starts);
                for (ti, tf) in g.fns.iter().enumerate() {
                    if tf.is_test || dist[ti] == usize::MAX {
                        continue;
                    }
                    let mut flag = |kind: HazardKind, what: &str, line: usize| {
                        if audited.contains(&kind.name()) {
                            return;
                        }
                        let chain = g.witness(&parent, ti);
                        let tail = g.render_witness(&chain, what, line).replacen(
                            "  witness: ",
                            "    -> ",
                            1,
                        );
                        report.violations.push(format!(
                            "par: {}:{line}: `{what}` ({} hazard) in `{}` is reachable from a \
                             worker closure of `{qual}` — prove it unreachable, or audit the \
                             class in PARALLEL_REGIONS with a determinism \
                             argument{discipline}\n{head}{tail}",
                            tf.file,
                            kind.name(),
                            tf.qualname()
                        ));
                    };
                    // Any SimRng method is the deterministic RNG stream;
                    // touching it from a worker perturbs the stream by
                    // scheduling order.
                    if tf.impl_type.as_deref() == Some("SimRng") {
                        flag(HazardKind::Rng, &tf.qualname(), tf.line);
                    }
                    for h in &tf.hazards {
                        flag(h.kind, &h.what, h.line);
                    }
                }
            }
        }
    }

    // Stale manifest entries: the file is in the scanned corpus but no
    // spawn site matched (function renamed, spawns removed, or the file
    // went serial).
    for (ri, r) in regions.iter().enumerate() {
        if region_live[ri] {
            continue;
        }
        if !g.fns.iter().any(|f| norm(&f.file).ends_with(r.file)) {
            continue;
        }
        report.violations.push(format!(
            "par: stale PARALLEL_REGIONS entry `{}` in {} — no thread-spawn site found in that \
             function; update or remove the manifest entry",
            r.function, r.file
        ));
    }
}
