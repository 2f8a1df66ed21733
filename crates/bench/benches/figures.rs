//! `cargo bench --bench figures` — one case per measured figure/experiment
//! of the paper.
//!
//! Each case times the quick-scale harness for its figure. The full-scale
//! tables for EXPERIMENTS.md (and the `results/*.json` files) come from the
//! `fig3`/`fig7`/`fig8`/`ablations` binaries; the time reported here is the
//! wall-clock cost of simulating one whole quick experiment.

use bench::report_case;
use samr_engine::AppKind;

const SAMPLES: usize = 10;

fn main() {
    report_case("figures/fig3_parallel_vs_distributed", SAMPLES, || {
        bench::fig3(true)
    });
    report_case("figures/fig7a_amr64_lan", SAMPLES, || {
        bench::fig7(AppKind::Amr64, true)
    });
    report_case("figures/fig7b_shockpool3d_wan", SAMPLES, || {
        bench::fig7(AppKind::ShockPool3D, true)
    });
    report_case("figures/fig8a_amr64_efficiency", SAMPLES, || {
        bench::fig8(AppKind::Amr64, true)
    });
    report_case("figures/fig8b_shockpool3d_efficiency", SAMPLES, || {
        bench::fig8(AppKind::ShockPool3D, true)
    });
    report_case("ablations/gamma_sensitivity", SAMPLES, || {
        bench::ablation_gamma(AppKind::ShockPool3D, true)
    });
    report_case("ablations/heterogeneous_processors", SAMPLES, || {
        bench::ablation_hetero(true)
    });
    report_case("ablations/traffic_adaptation", SAMPLES, || {
        bench::ablation_traffic(true)
    });
}
