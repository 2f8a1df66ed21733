//! `samr-dlb-run` — command-line runner for one simulated SAMR execution.
//!
//! ```text
//! samr-dlb-run [--app shockpool3d|amr64|advect] [--scheme distributed|parallel|static]
//!              [--testbed wan|lan|smp|three-site|hetero] [--procs N] [--n0 N]
//!              [--steps N] [--levels N] [--gamma F] [--seed N] [--json]
//! ```
//!
//! Prints the run summary (and the full result as JSON with `--json`).

#![forbid(unsafe_code)]

use samr_dlb::prelude::*;
use samr_engine::Scheme;

struct Args {
    app: AppKind,
    scheme: String,
    testbed: String,
    procs: usize,
    n0: i64,
    steps: usize,
    levels: usize,
    gamma: f64,
    seed: u64,
    json: bool,
}

/// Parse `flag`'s value `v`; the error names both.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag} {v}: {e}"))
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        app: AppKind::ShockPool3D,
        scheme: "distributed".into(),
        testbed: "wan".into(),
        procs: 4,
        n0: 24,
        steps: 4,
        levels: 4,
        gamma: 2.0,
        seed: 42,
        json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut val = || -> Result<&str, String> {
            i += 1;
            argv.get(i)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--app" => {
                a.app = match val()? {
                    "shockpool3d" => AppKind::ShockPool3D,
                    "amr64" => AppKind::Amr64,
                    "advect" => AppKind::AdvectBlob,
                    x => return Err(format!("unknown app {x}")),
                }
            }
            "--scheme" => a.scheme = val()?.to_string(),
            "--testbed" => a.testbed = val()?.to_string(),
            // no processors, an empty domain or an empty hierarchy has
            // nothing to run
            "--procs" => {
                let v = val()?;
                a.procs = number(flag, v)?;
                if a.procs < 1 {
                    return Err(format!("--procs must be >= 1, got {v}"));
                }
            }
            "--n0" => {
                let v = val()?;
                a.n0 = number(flag, v)?;
                if a.n0 < 1 {
                    return Err(format!("--n0 must be >= 1, got {v}"));
                }
            }
            "--steps" => a.steps = number(flag, val()?)?,
            "--levels" => {
                let v = val()?;
                a.levels = number(flag, v)?;
                if a.levels < 1 {
                    return Err(format!("--levels must be >= 1, got {v}"));
                }
            }
            "--gamma" => {
                let v = val()?;
                a.gamma = number(flag, v)?;
                // a negative γ admits any positive gain and NaN admits
                // none; `inf` (never redistribute) is a legitimate setting
                if a.gamma.is_nan() || a.gamma < 0.0 {
                    return Err(format!("--gamma must be >= 0 or inf, got {v}"));
                }
            }
            "--seed" => a.seed = number(flag, val()?)?,
            "--json" => a.json = true,
            "--help" | "-h" => {
                println!(
                    "usage: samr-dlb-run [--app shockpool3d|amr64|advect] \
                     [--scheme distributed|parallel|static] \
                     [--testbed wan|lan|smp|three-site|hetero] [--procs N] \
                     [--n0 N] [--steps N] [--levels N] [--gamma F] [--seed N] [--json]"
                );
                std::process::exit(0);
            }
            x => return Err(format!("unknown flag {x}")),
        }
        i += 1;
    }
    Ok(a)
}

fn main() {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let per_site = a.procs.div_ceil(2);
    let sys = match a.testbed.as_str() {
        "wan" => presets::anl_ncsa_wan(per_site, per_site, a.seed),
        "lan" => presets::anl_lan_pair(per_site, per_site, a.seed),
        "smp" => presets::single_origin2000(a.procs),
        "three-site" => {
            let per = (a.procs / 3).max(1);
            presets::three_site_wan(per, per, per, a.seed)
        }
        "hetero" => presets::heterogeneous_wan(per_site, per_site, 2.0, a.seed),
        x => {
            eprintln!("error: unknown testbed {x}");
            std::process::exit(2);
        }
    };
    let scheme = match a.scheme.as_str() {
        "distributed" => Scheme::Distributed(dlb::DistributedDlbConfig {
            gamma: a.gamma,
            ..Default::default()
        }),
        "parallel" => Scheme::Parallel,
        "static" => Scheme::Static,
        x => {
            eprintln!("error: unknown scheme {x}");
            std::process::exit(2);
        }
    };

    let mut cfg = RunConfig::new(a.app, a.n0, a.steps, scheme);
    cfg.max_levels = a.levels;
    cfg.seed = a.seed;
    let result = Driver::new(sys, cfg).run();

    if a.json {
        println!("{}", base::json::ToJson::to_json(&result).to_pretty());
    } else {
        println!("{}", result.summary());
        println!(
            "levels {}  grids {}  cell-updates {}  remote {} msgs / {} bytes",
            result.levels,
            result.final_patches,
            result.cell_updates,
            result.breakdown.remote_msgs,
            result.breakdown.remote_bytes
        );
    }
}
