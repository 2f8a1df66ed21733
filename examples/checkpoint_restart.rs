//! Checkpoint/restart: save a run's physics state mid-flight and continue
//! it later — possibly on a different machine configuration, the way a grid
//! job would resume after its time slice at one site and migrate to another.
//!
//! ```text
//! cargo run --release --example checkpoint_restart
//! ```

use samr_dlb::prelude::*;
use samr_engine::{Checkpoint, Scheme};

fn main() {
    let cfg = || {
        let mut c = RunConfig::new(
            AppKind::ShockPool3D,
            16,
            4,
            Scheme::distributed_default(),
        );
        c.max_levels = 3;
        c
    };

    // phase 1: two steps on the ANL+NCSA pair
    let sys1 = presets::anl_ncsa_wan(2, 2, 7);
    println!("phase 1 on {}", sys1.describe());
    let mut driver = Driver::new(sys1, cfg());
    driver.step_once();
    driver.step_once();
    let ckpt = driver.checkpoint();
    let json = ckpt.to_json().expect("the solution is finite");
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/checkpoint.json", &json).expect("write checkpoint");
    println!(
        "checkpointed after 2 steps: {} grids, {} KB on disk",
        ckpt.hierarchy.patches.len(),
        json.len() / 1024
    );

    // phase 2: resume from the file, on a three-site system
    let text = std::fs::read_to_string("results/checkpoint.json").expect("read checkpoint");
    let loaded = Checkpoint::from_json(&text).expect("parse checkpoint");
    let sys2 = presets::three_site_wan(2, 2, 2, 7);
    println!("\nphase 2 on {}", sys2.describe());
    let mut resumed = Driver::resume(sys2, cfg(), &loaded);
    resumed.step_once();
    resumed.step_once();
    let result = resumed.finish();
    println!("{}", result.summary());
    println!(
        "\nThe solution carried over exactly (same grids, same fields); only\n\
         the simulated clock restarted — as in a real job restart."
    );
}
