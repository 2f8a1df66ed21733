//! `cargo bench --bench kernels` — micro-benches of the hot kernels underneath the experiments:
//! the Euler sweep, the level-0 boundary fill and build, flag buffering and
//! Berger–Rigoutsos clustering, the balancing primitive, link timing, the
//! probe, and the gain evaluator.

use bench::report_case;
use dlb::{balance_level_within, evaluate_gain, BalanceParams, WorkloadHistory};
use samr_engine::{AppKind, Driver, RunConfig, Scheme};
use samr_mesh::cluster::{berger_rigoutsos, ClusterParams};
use samr_mesh::field::Field3;
use samr_mesh::flag::FlagField;
use samr_mesh::hierarchy::GridHierarchy;
use samr_mesh::region::Region;
use samr_mesh::{ivec3, region, IVec3};
use samr_solvers::{advection, euler, poisson};
use simnet::SimView;
use std::hint::black_box;
use topology::{presets, LinkEstimator, ProcId, SimTime};

fn euler_fieldset(size: IVec3) -> Vec<Field3> {
    let mut fs: Vec<Field3> = (0..euler::NFIELDS)
        .map(|_| Field3::zeros(Region::at(IVec3::ZERO, size), 1))
        .collect();
    euler::set_ambient(&mut fs, 1.0, [0.1, 0.0, 0.0], 1.0, 1.4);
    // a jump so fluxes are non-trivial
    for p in fs[0].storage_region().iter_cells() {
        if p.x < size.x / 3 {
            fs[euler::fields::RHO].set(p, 4.0);
            fs[euler::fields::E].set(p, 10.0);
        }
    }
    fs
}

const SAMPLES: usize = 20;

fn main() {
    // 16³, then the shapes the benchmark workloads' meshes are made of:
    // slabs two cells thick along the walked (x) and along the lane (z)
    // axis — half of `amr64_lan`'s and `shock_wan`'s patches mid-run — the
    // 8³ fine-level box, and `shock_wan`'s heaviest shape
    for (name, size) in [
        ("euler_step_16cubed", IVec3::splat(16)),
        ("euler_step_2x16x16", ivec3(2, 16, 16)),
        ("euler_step_16x16x2", ivec3(16, 16, 2)),
        ("euler_step_8cubed", IVec3::splat(8)),
        ("euler_step_18x48x28", ivec3(18, 48, 28)),
    ] {
        let mut fs = euler_fieldset(size);
        report_case(name, SAMPLES, || {
            euler::euler_step(black_box(&mut fs), 0.05, 1.4);
        });
    }

    {
        let mut fs = euler_fieldset(IVec3::splat(16));
        report_case("euler_step_16cubed_reference", SAMPLES, || {
            euler::reference::euler_step(black_box(&mut fs), 0.05, 1.4);
        });
    }

    {
        let mut f = Field3::zeros(Region::cube(16), 2);
        f.map_interior(|p, _| ((p.x * 7 + p.y * 3 + p.z) % 11) as f64 * 0.1);
        f.fill_ghosts_zero_gradient();
        let pool = samr_mesh::pool::FieldPool::new();
        report_case("advect_step_16cubed_limited", SAMPLES, || {
            advection::advect_step(black_box(&mut f), [0.4, -0.3, 0.2], true, &pool);
        });
    }

    {
        let mut phi = Field3::zeros(Region::cube(16), 1);
        let mut rhs = Field3::zeros(Region::cube(16), 0);
        phi.map_interior(|p, _| (p.x + p.y + p.z) as f64 * 0.05);
        rhs.map_interior(|p, _| if p.x == 8 { -1.0 } else { 0.0 });
        report_case("rbgs_sweep_16cubed", SAMPLES, || {
            poisson::rbgs_sweep(black_box(&mut phi), &rhs, 1.0);
        });
    }

    // Amr64's elliptic part: the relaxation reading its source out of ρ
    {
        let mut phi = Field3::zeros(Region::cube(8), 1);
        let mut rho = Field3::zeros(Region::cube(8), 1);
        phi.map_interior(|p, _| (p.x + p.y + p.z) as f64 * 0.05);
        rho.map_interior(|p, _| 1.0 + (p.x % 3) as f64 * 0.25);
        report_case("rbgs_sweep_shifted_8cubed", SAMPLES, || {
            poisson::rbgs_sweep_shifted(black_box(&mut phi), &rho, 1.0, 1.0);
        });
    }

    {
        let mut f = Field3::zeros(Region::cube(16), 2);
        f.map_interior(|p, _| (p.x * p.y + p.z) as f64);
        report_case("fill_ghosts_zero_gradient_16cubed_g2", SAMPLES, || {
            black_box(&mut f).fill_ghosts_zero_gradient();
        });
    }

    // the level-0 boundary fill: each field of a slab filled box by box
    // over its `coarse_fill` (the shell minus the sibling windows, as the
    // exchange plan cuts it) — two 8×16×16 slabs side by side and the 8³
    // corner slab of an octant cut, six fields each, ghost 1 — and the
    // whole-shell fill of the same fields for scale
    {
        let slabs_of = |domain: Region, cuts: &[Region]| {
            let mut h = GridHierarchy::new(domain, 2, 1, 6, 1);
            for &r in cuts {
                h.insert_patch(0, r, None, 0);
            }
            let topo = h.exchange_topology(0);
            let slab = |s: &samr_mesh::PatchShell| {
                let mut fields = h.patch(s.id).fields.clone();
                for (k, f) in fields.iter_mut().enumerate() {
                    f.map_interior(|p, _| (p.x * 5 + p.y * 3 + p.z + k as i64) as f64);
                }
                (s.coarse_fill.clone(), fields)
            };
            topo.shells.iter().map(slab).collect::<Vec<_>>()
        };
        let halves = [
            region(ivec3(0, 0, 0), ivec3(8, 16, 16)),
            region(ivec3(8, 0, 0), ivec3(16, 16, 16)),
        ];
        let octant = [region(ivec3(0, 0, 0), ivec3(8, 8, 8))]
            .into_iter()
            .chain((1..8).map(|i| {
                let lo = ivec3(8 * (i & 1), 8 * ((i >> 1) & 1), 8 * (i >> 2));
                Region::at(lo, IVec3::splat(8))
            }))
            .collect::<Vec<_>>();
        let mut cases = slabs_of(Region::cube(16), &halves);
        cases.extend(slabs_of(Region::cube(16), &octant).into_iter().take(1));
        report_case("fill_clamped_boundary_slabs", SAMPLES, || {
            for (boxes, fields) in cases.iter_mut() {
                for f in fields.iter_mut() {
                    boxes.iter().for_each(|b| f.fill_clamped(b));
                }
            }
            black_box(&cases);
        });
        report_case("fill_ghosts_zero_gradient_boundary_slabs", SAMPLES, || {
            for (_, fields) in cases.iter_mut() {
                fields.iter_mut().for_each(Field3::fill_ghosts_zero_gradient);
            }
            black_box(&cases);
        });
    }

    // the level-0 build of `fed_g64`: `Driver::new` on the 64-group,
    // 2 048-processor federation with one level, so no regrid cascade runs
    {
        let sys = presets::federation(64, 32, 7);
        report_case("level0_build_amr64_n128_g64x32", 5, || {
            let mut cfg = RunConfig::new(AppKind::Amr64, 128, 1, Scheme::distributed_default());
            cfg.max_levels = 1;
            black_box(Driver::new(sys.clone(), cfg))
        });
    }

    {
        let mut flags = FlagField::new(Region::cube(32));
        for p in Region::cube(32).iter_cells() {
            if (2 * p.x + p.y - 32).abs() <= 1 {
                flags.set(p, true);
            }
        }
        let params = ClusterParams::default();
        report_case("berger_rigoutsos_tilted_plane_32", SAMPLES, || {
            black_box(berger_rigoutsos(&flags, &params))
        });
        // the regrid's buffering of the same mask, two layers deep (the
        // clone of the 32³ mask is inside the timed closure)
        report_case("flag_buffer_tilted_plane_32_b2", SAMPLES, || {
            let mut f = flags.clone();
            f.buffer(2);
            black_box(f)
        });
    }

    {
        // many small masks: 64 parent grids of 8×8×16 cells, each flagging
        // one off-centre ball, clustered one after the other — the shape of
        // `fed_g64`'s level-0 regrid
        let masks: Vec<FlagField> = (0..64)
            .map(|i| {
                let r = Region::at(ivec3(8 * i, 0, 0), ivec3(8, 8, 16));
                let c = r.lo + ivec3(i % 8, (3 * i) % 8, (5 * i) % 16);
                let r2 = 4 + i % 9;
                let mut flags = FlagField::new(r);
                for p in r.iter_cells() {
                    let d = p - c;
                    if d.x * d.x + d.y * d.y + d.z * d.z <= r2 {
                        flags.set(p, true);
                    }
                }
                flags.buffer(1);
                flags
            })
            .collect();
        let params = ClusterParams {
            min_box_cells: 4,
            ..ClusterParams::default()
        };
        report_case("berger_rigoutsos_64_masks_8x8x16", SAMPLES, || {
            for flags in &masks {
                black_box(berger_rigoutsos(flags, &params));
            }
        });
    }

    {
        // setup (hierarchy build + fresh view) is inside the timed closure:
        // balancing mutates both, and the build is cheap next to the
        // balance pass itself
        let procs: Vec<ProcId> = (0..8).map(ProcId).collect();
        report_case("balance_level_within_64_grids", SAMPLES, || {
            let mut h = GridHierarchy::new(region(ivec3(0, 0, 0), ivec3(8 * 64, 8, 8)), 2, 2, 1, 1);
            for i in 0..64 {
                h.insert_patch(
                    0,
                    region(ivec3(8 * i, 0, 0), ivec3(8 * (i + 1), 8, 8)),
                    None,
                    0,
                );
            }
            let mut sim = SimView::new(presets::single_origin2000(8));
            black_box(balance_level_within(
                &mut h,
                &mut sim,
                0,
                &procs,
                &[1.0; 8],
                &BalanceParams::default(),
            ))
        });
    }

    {
        let link = presets::mren_oc3_wan(7);
        let mut t = 0u64;
        report_case("wan_transfer_time_1MB", SAMPLES, || {
            t = t.wrapping_add(1);
            black_box(link.transfer_time(SimTime(t * 1_000_000), 1 << 20))
        });
    }

    {
        let link = presets::mren_oc3_wan(7);
        let mut est = LinkEstimator::paper_default();
        let mut i = 0u64;
        report_case("probe_and_estimate", SAMPLES, || {
            i += 1;
            black_box(est.refresh(&link, SimTime::from_secs(i)))
        });
    }

    {
        let sys = presets::anl_ncsa_wan(4, 4, 7);
        let mut h = WorkloadHistory::new(8);
        h.record_snapshot(
            vec![vec![1000; 8], vec![4000, 3000, 2000, 1000, 0, 0, 0, 0]],
            vec![1, 2],
        );
        h.record_step_time(12.0);
        report_case("gain_evaluation_8_procs", SAMPLES, || {
            black_box(evaluate_gain(&h, &sys))
        });
    }
}
