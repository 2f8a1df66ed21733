//! Regenerates the ablation studies A–H: γ sensitivity, processor
//! heterogeneity, traffic adaptation, imbalance tolerance, estimator λ,
//! donor selection, link faults and the α/β forecaster.
use samr_engine::AppKind;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let t = bench::ablation_gamma(AppKind::ShockPool3D, quick);
    println!("{}", bench::emit(&t, "ablation_gamma"));
    let t = bench::ablation_hetero(quick);
    println!("{}", bench::emit(&t, "ablation_hetero"));
    let t = bench::ablation_traffic(quick);
    println!("{}", bench::emit(&t, "ablation_traffic"));
    let t = bench::ablation_tolerance(quick);
    println!("{}", bench::emit(&t, "ablation_tolerance"));
    let t = bench::ablation_lambda(quick);
    println!("{}", bench::emit(&t, "ablation_lambda"));
    let t = bench::ablation_selection(quick);
    println!("{}", bench::emit(&t, "ablation_selection"));
    let t = bench::ablation_faults(quick);
    println!("{}", bench::emit(&t, "ablation_faults"));
    let t = bench::ablation_forecast(quick);
    println!("{}", bench::emit(&t, "ablation_forecast"));
}
