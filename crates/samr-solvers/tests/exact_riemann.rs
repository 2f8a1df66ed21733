//! Exact Riemann solver for the 1-D Euler equations (Toro's two-shock /
//! two-rarefaction iteration) — the accuracy oracle the HLL scheme is
//! checked against on Sod-type shock tubes. Test support only: no run of
//! the engine solves a Riemann problem exactly.

use samr_mesh::field::Field3;
use samr_mesh::ivec3;
use samr_mesh::region::region;
use samr_solvers::euler::{self, fields as F};

/// A primitive 1-D state.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PrimState {
    rho: f64,
    v: f64,
    p: f64,
}

impl PrimState {
    fn sound_speed(&self, gamma: f64) -> f64 {
        (gamma * self.p / self.rho).sqrt()
    }
}

/// The exact solution structure of a Riemann problem.
#[derive(Clone, Copy, Debug)]
struct RiemannSolution {
    /// Star-region pressure.
    p_star: f64,
    /// Star-region (contact) velocity.
    v_star: f64,
    /// Density left of the contact.
    rho_star_l: f64,
    /// Density right of the contact.
    rho_star_r: f64,
}

/// `f_K(p)` and its derivative for the pressure iteration (Toro §4.3).
fn f_k(p: f64, s: &PrimState, gamma: f64) -> (f64, f64) {
    let a = 2.0 / ((gamma + 1.0) * s.rho);
    let b = (gamma - 1.0) / (gamma + 1.0) * s.p;
    if p > s.p {
        // shock
        let q = (a / (p + b)).sqrt();
        let f = (p - s.p) * q;
        let df = q * (1.0 - (p - s.p) / (2.0 * (p + b)));
        (f, df)
    } else {
        // rarefaction
        let c = s.sound_speed(gamma);
        let pr = p / s.p;
        let g1 = (gamma - 1.0) / (2.0 * gamma);
        let f = 2.0 * c / (gamma - 1.0) * (pr.powf(g1) - 1.0);
        let df = 1.0 / (s.rho * c) * pr.powf(-(gamma + 1.0) / (2.0 * gamma));
        (f, df)
    }
}

/// Solve the Riemann problem exactly. Panics on vacuum-generating data.
fn solve_riemann(left: &PrimState, right: &PrimState, gamma: f64) -> RiemannSolution {
    let cl = left.sound_speed(gamma);
    let cr = right.sound_speed(gamma);
    // vacuum check
    assert!(
        2.0 * (cl + cr) / (gamma - 1.0) > right.v - left.v,
        "vacuum-generating Riemann data"
    );
    // initial guess: two-rarefaction approximation
    let g1 = (gamma - 1.0) / (2.0 * gamma);
    let p0 = ((cl + cr - 0.5 * (gamma - 1.0) * (right.v - left.v))
        / (cl / left.p.powf(g1) + cr / right.p.powf(g1)))
    .powf(1.0 / g1);
    let mut p = p0.max(1e-12);
    for _ in 0..60 {
        let (fl, dfl) = f_k(p, left, gamma);
        let (fr, dfr) = f_k(p, right, gamma);
        let f = fl + fr + (right.v - left.v);
        let df = dfl + dfr;
        let step = f / df;
        let next = (p - step).max(1e-12);
        if (next - p).abs() / (0.5 * (next + p)) < 1e-14 {
            p = next;
            break;
        }
        p = next;
    }
    let (fl, _) = f_k(p, left, gamma);
    let (fr, _) = f_k(p, right, gamma);
    let v_star = 0.5 * (left.v + right.v) + 0.5 * (fr - fl);

    let star_rho = |s: &PrimState| -> f64 {
        let b = (gamma - 1.0) / (gamma + 1.0);
        if p > s.p {
            // shock: Rankine-Hugoniot density
            s.rho * ((p / s.p + b) / (b * p / s.p + 1.0))
        } else {
            // rarefaction: isentropic
            s.rho * (p / s.p).powf(1.0 / gamma)
        }
    };
    RiemannSolution {
        p_star: p,
        v_star,
        rho_star_l: star_rho(left),
        rho_star_r: star_rho(right),
    }
}

/// Sample the exact solution at similarity coordinate `xi = x/t`.
fn sample(
    left: &PrimState,
    right: &PrimState,
    sol: &RiemannSolution,
    gamma: f64,
    xi: f64,
) -> PrimState {
    let g1 = (gamma - 1.0) / (gamma + 1.0);
    if xi <= sol.v_star {
        // left of contact
        let s = left;
        let c = s.sound_speed(gamma);
        if sol.p_star > s.p {
            // left shock
            let sh = s.v
                - c * ((gamma + 1.0) / (2.0 * gamma) * sol.p_star / s.p
                    + (gamma - 1.0) / (2.0 * gamma))
                    .sqrt();
            if xi < sh {
                *s
            } else {
                PrimState {
                    rho: sol.rho_star_l,
                    v: sol.v_star,
                    p: sol.p_star,
                }
            }
        } else {
            // left rarefaction: head and tail speeds
            let c_star = c * (sol.p_star / s.p).powf((gamma - 1.0) / (2.0 * gamma));
            let head = s.v - c;
            let tail = sol.v_star - c_star;
            if xi < head {
                *s
            } else if xi > tail {
                PrimState {
                    rho: sol.rho_star_l,
                    v: sol.v_star,
                    p: sol.p_star,
                }
            } else {
                // inside the fan
                let v = (1.0 - g1) * xi + g1 * (s.v + 2.0 * c / (gamma - 1.0));
                let c_local = v - xi;
                let rho = s.rho * (c_local / c).powf(2.0 / (gamma - 1.0));
                let p = s.p * (c_local / c).powf(2.0 * gamma / (gamma - 1.0));
                PrimState { rho, v, p }
            }
        }
    } else {
        // right of contact (mirror)
        let s = right;
        let c = s.sound_speed(gamma);
        if sol.p_star > s.p {
            let sh = s.v
                + c * ((gamma + 1.0) / (2.0 * gamma) * sol.p_star / s.p
                    + (gamma - 1.0) / (2.0 * gamma))
                    .sqrt();
            if xi > sh {
                *s
            } else {
                PrimState {
                    rho: sol.rho_star_r,
                    v: sol.v_star,
                    p: sol.p_star,
                }
            }
        } else {
            let c_star = c * (sol.p_star / s.p).powf((gamma - 1.0) / (2.0 * gamma));
            let head = s.v + c;
            let tail = sol.v_star + c_star;
            if xi > head {
                *s
            } else if xi < tail {
                PrimState {
                    rho: sol.rho_star_r,
                    v: sol.v_star,
                    p: sol.p_star,
                }
            } else {
                let v = (1.0 - g1) * xi - g1 * (2.0 * c / (gamma - 1.0) - s.v);
                let c_local = xi - v;
                let rho = s.rho * (c_local / c).powf(2.0 / (gamma - 1.0));
                let p = s.p * (c_local / c).powf(2.0 * gamma / (gamma - 1.0));
                PrimState { rho, v, p }
            }
        }
    }
}

const GAMMA: f64 = 1.4;

fn sod() -> (PrimState, PrimState) {
    (
        PrimState {
            rho: 1.0,
            v: 0.0,
            p: 1.0,
        },
        PrimState {
            rho: 0.125,
            v: 0.0,
            p: 0.1,
        },
    )
}

#[test]
fn sod_star_state_matches_literature() {
    let (l, r) = sod();
    let s = solve_riemann(&l, &r, GAMMA);
    // Toro's reference values for the Sod problem
    assert!((s.p_star - 0.30313).abs() < 1e-4, "p* {}", s.p_star);
    assert!((s.v_star - 0.92745).abs() < 1e-4, "v* {}", s.v_star);
    assert!(
        (s.rho_star_l - 0.42632).abs() < 1e-4,
        "rho*L {}",
        s.rho_star_l
    );
    assert!(
        (s.rho_star_r - 0.26557).abs() < 1e-4,
        "rho*R {}",
        s.rho_star_r
    );
}

#[test]
fn symmetric_collision_has_zero_contact_velocity() {
    let l = PrimState {
        rho: 1.0,
        v: 2.0,
        p: 1.0,
    };
    let r = PrimState {
        rho: 1.0,
        v: -2.0,
        p: 1.0,
    };
    let s = solve_riemann(&l, &r, GAMMA);
    assert!(s.v_star.abs() < 1e-12);
    assert!(s.p_star > 1.0, "colliding flows compress");
    assert!((s.rho_star_l - s.rho_star_r).abs() < 1e-12);
}

#[test]
fn trivial_riemann_problem_is_identity() {
    let u = PrimState {
        rho: 1.0,
        v: 0.3,
        p: 2.0,
    };
    let s = solve_riemann(&u, &u, GAMMA);
    assert!((s.p_star - 2.0).abs() < 1e-10);
    assert!((s.v_star - 0.3).abs() < 1e-10);
    let mid = sample(&u, &u, &s, GAMMA, 0.3);
    assert!((mid.rho - 1.0).abs() < 1e-10);
}

#[test]
fn sampling_is_consistent_at_extremes() {
    let (l, r) = sod();
    let s = solve_riemann(&l, &r, GAMMA);
    let far_left = sample(&l, &r, &s, GAMMA, -10.0);
    let far_right = sample(&l, &r, &s, GAMMA, 10.0);
    assert_eq!(far_left, l);
    assert_eq!(far_right, r);
    // at the contact, pressure and velocity continuous, density jumps
    let eps = 1e-6;
    let cl = sample(&l, &r, &s, GAMMA, s.v_star - eps);
    let cr = sample(&l, &r, &s, GAMMA, s.v_star + eps);
    assert!((cl.p - cr.p).abs() < 1e-6);
    assert!((cl.v - cr.v).abs() < 1e-6);
    assert!((cl.rho - cr.rho).abs() > 0.1);
}

/// Run the 3-D HLL solver on a 1-D Sod tube (uniform in y, z) and
/// compare the density profile against the exact solution.
#[test]
fn hll_converges_to_exact_sod_profile() {
    let (l, r) = sod();
    let exact = solve_riemann(&l, &r, GAMMA);
    let n = 64i64;
    let reg = region(ivec3(0, 0, 0), ivec3(n, 4, 4));
    let mut fs: Vec<Field3> = (0..euler::NFIELDS).map(|_| Field3::zeros(reg, 1)).collect();
    for p in fs[0].storage_region().iter_cells() {
        let s = if p.x < n / 2 { l } else { r };
        fs[F::RHO].set(p, s.rho);
        fs[F::MX].set(p, s.rho * s.v);
        fs[F::E].set(p, s.p / (GAMMA - 1.0) + 0.5 * s.rho * s.v * s.v);
    }
    // advance to t such that waves stay inside the box
    let dx = 1.0;
    let mut t = 0.0;
    let t_end = 10.0; // in cell units: waves move ~1.75 cells/unit, safe
    while t < t_end {
        let smax = euler::max_wave_speed(&fs, GAMMA);
        let dt = (0.4 * dx / smax).min(t_end - t);
        for f in fs.iter_mut() {
            f.fill_ghosts_zero_gradient();
        }
        euler::sweep(&mut fs, 0, dt / dx, GAMMA);
        t += dt;
    }
    // compare rho(x) to exact rho((x - x0)/t)
    let x0 = (n / 2) as f64;
    let mut l1 = 0.0;
    for x in 0..n {
        let xi = (x as f64 + 0.5 - x0) / t;
        let ex = sample(&l, &r, &exact, GAMMA, xi);
        let got = fs[F::RHO].get(ivec3(x, 2, 2));
        l1 += (got - ex.rho).abs();
    }
    l1 /= n as f64;
    // first-order HLL at n=64: L1 error of a few percent
    assert!(l1 < 0.035, "L1 density error {l1}");
}

#[test]
#[should_panic]
fn vacuum_data_rejected() {
    let l = PrimState {
        rho: 1.0,
        v: -20.0,
        p: 0.01,
    };
    let r = PrimState {
        rho: 1.0,
        v: 20.0,
        p: 0.01,
    };
    let _ = solve_riemann(&l, &r, GAMMA);
}
