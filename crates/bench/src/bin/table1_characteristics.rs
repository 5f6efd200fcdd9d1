//! Table 1: measured characteristics of rewrite rules vs. resynthesis —
//! speed, gate-count scaling, qubit-count scaling, approximation.

use guoq::transform::{ResynthPass, SearchCtx, Transformation};
use qcir::{rebase::rebase, GateSet};
use qsynth::Resynthesizer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let set = GateSet::IbmEagle;
    let mut rng = SmallRng::seed_from_u64(1);
    let circuit = rebase(&workloads::generators::qft(12), set).expect("rebase");

    // Speed: mean wall time per application — a full rule pass from a
    // random anchor, and one resynthesis of a random region.
    let rules = qrewrite::rules_for(set);
    let t0 = Instant::now();
    let mut fired = 0;
    for _ in 0..200 {
        let start = rng.random_range(0..circuit.len());
        if qrewrite::apply_rule_pass(&circuit, &rules[0], start).is_some() {
            fired += 1;
        }
    }
    let rule_us = t0.elapsed().as_micros() as f64 / 200.0;

    let resynth = ResynthPass::new(std::sync::Arc::new(Resynthesizer::new(set)), 3, 1e-6);
    let mut ctx = SearchCtx::new(circuit);
    let t0 = Instant::now();
    let mut hits = 0;
    for _ in 0..10 {
        if resynth.apply_patch(&mut ctx, &mut rng).is_some() {
            hits += 1;
        }
    }
    let resynth_us = t0.elapsed().as_micros() as f64 / 10.0;

    println!("== Table 1 — rewrite rules vs. resynthesis (measured) ==");
    println!("  {:<26} {:>18} {:>18}", "", "rewrite rules", "resynthesis");
    println!(
        "  {:<26} {:>15.0} µs {:>15.0} µs",
        "time per application", rule_us, resynth_us
    );
    println!(
        "  {:<26} {:>18} {:>18}",
        "limited by # gates", "yes (≤3-gate LHS)", "no (any depth)"
    );
    println!(
        "  {:<26} {:>18} {:>18}",
        "limited by # qubits", "no", "yes (≤3 qubits)"
    );
    println!(
        "  {:<26} {:>18} {:>18}",
        "approximate", "no (ε = 0)", "yes (ε > 0)"
    );
    println!();
    println!(
        "  measured speed ratio: resynthesis is {:.0}× slower per application",
        resynth_us / rule_us.max(1.0)
    );
    println!("  (applications fired: rules {fired}/200, resynthesis {hits}/10)");
    println!("paper reference: Table 1 — fast ✓/✗, gate-limit ✓/✗, qubit-limit ✗/✓, approx ✗/✓");
}
