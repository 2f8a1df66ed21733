//! Collisionless particles with leapfrog (kick–drift–kick) integration and
//! nearest-grid-point deposition — the "set of ordinary differential
//! equations for the particle trajectories" of the `AMR64` dataset.

use samr_mesh::field::Field3;
use samr_mesh::index::ivec3;
use samr_mesh::region::Region;

/// One tracer/mass particle. Positions are continuous level-0 cell
/// coordinates (cell `i` spans `[i, i+1)`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Particle {
    pub pos: [f64; 3],
    pub vel: [f64; 3],
    pub mass: f64,
}

base::json_struct!(Particle: pos, vel, mass);

/// A set of particles living on the level-0 domain.
#[derive(Clone, Debug, Default)]
pub struct ParticleSet {
    pub particles: Vec<Particle>,
}

base::json_struct!(ParticleSet: particles);

impl ParticleSet {
    pub fn new(particles: Vec<Particle>) -> Self {
        ParticleSet { particles }
    }

    pub fn len(&self) -> usize {
        self.particles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Velocity kick: `v += a(pos) · dt`.
    pub fn kick(&mut self, dt: f64, accel: impl Fn([f64; 3]) -> [f64; 3]) {
        for p in &mut self.particles {
            let a = accel(p.pos);
            for k in 0..3 {
                p.vel[k] += a[k] * dt;
            }
        }
    }

    /// Position drift: `x += v · dt`, with periodic wrapping into `domain`
    /// (level-0 cell coordinates).
    pub fn drift(&mut self, dt: f64, domain: Region) {
        let lo = [domain.lo.x as f64, domain.lo.y as f64, domain.lo.z as f64];
        let hi = [domain.hi.x as f64, domain.hi.y as f64, domain.hi.z as f64];
        for p in &mut self.particles {
            for k in 0..3 {
                p.pos[k] += p.vel[k] * dt;
                let span = hi[k] - lo[k];
                while p.pos[k] < lo[k] {
                    p.pos[k] += span;
                }
                while p.pos[k] >= hi[k] {
                    p.pos[k] -= span;
                }
            }
        }
    }

    /// One full leapfrog step (kick–drift–kick).
    pub fn leapfrog(&mut self, dt: f64, domain: Region, accel: impl Fn([f64; 3]) -> [f64; 3]) {
        self.kick(0.5 * dt, &accel);
        self.drift(dt, domain);
        self.kick(0.5 * dt, &accel);
    }

    /// Deposit particle mass onto `field` (whose interior is in the same
    /// level-0 coordinates) with nearest-grid-point weighting, scaled by
    /// `scale` (mass→density conversion). Particles outside the field's
    /// interior are skipped.
    pub fn deposit_ngp(&self, field: &mut Field3, scale: f64) {
        let interior = field.interior();
        for p in &self.particles {
            let c = ivec3(
                p.pos[0].floor() as i64,
                p.pos[1].floor() as i64,
                p.pos[2].floor() as i64,
            );
            if interior.contains(c) {
                *field.at_mut(c) += p.mass * scale;
            }
        }
    }

    /// Count particles whose containing cell lies inside `region`.
    pub fn count_in(&self, region: Region) -> usize {
        self.particles
            .iter()
            .filter(|p| {
                region.contains(ivec3(
                    p.pos[0].floor() as i64,
                    p.pos[1].floor() as i64,
                    p.pos[2].floor() as i64,
                ))
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(pos: [f64; 3], vel: [f64; 3]) -> ParticleSet {
        ParticleSet::new(vec![Particle {
            pos,
            vel,
            mass: 1.0,
        }])
    }

    #[test]
    fn free_particle_moves_linearly() {
        let mut s = one([1.0, 1.0, 1.0], [1.0, 0.0, 0.5]);
        s.leapfrog(2.0, Region::cube(16), |_| [0.0; 3]);
        let p = s.particles[0];
        assert!((p.pos[0] - 3.0).abs() < 1e-12);
        assert!((p.pos[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_wrap() {
        let mut s = one([15.5, 0.0, 0.0], [1.0, -1.0, 0.0]);
        s.drift(1.0, Region::cube(16));
        let p = s.particles[0];
        assert!((p.pos[0] - 0.5).abs() < 1e-12);
        assert!((p.pos[1] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_oscillator_energy_bounded() {
        // a = -x (center 8): leapfrog conserves energy to O(dt^2) over many
        // periods — check it doesn't drift systematically.
        let center = 8.0;
        let accel = |pos: [f64; 3]| [-(pos[0] - center), 0.0, 0.0];
        let mut s = one([10.0, 8.0, 8.0], [0.0, 0.0, 0.0]);
        let e0 = 0.5 * (10.0f64 - center).powi(2); // potential energy
        let dt = 0.05;
        let mut max_dev: f64 = 0.0;
        for _ in 0..2000 {
            s.leapfrog(dt, Region::cube(16), accel);
            let p = s.particles[0];
            let e = 0.5 * p.vel[0] * p.vel[0] + 0.5 * (p.pos[0] - center).powi(2);
            max_dev = max_dev.max((e - e0).abs() / e0);
        }
        assert!(max_dev < 0.01, "energy deviation {max_dev}");
    }

    #[test]
    fn deposit_ngp_sums_mass() {
        let mut s = ParticleSet::new(
            (0..10)
                .map(|i| Particle {
                    pos: [2.3, 2.7, i as f64 / 10.0 + 2.0],
                    vel: [0.0; 3],
                    mass: 2.0,
                })
                .collect(),
        );
        let mut f = Field3::zeros(Region::cube(8), 0);
        s.deposit_ngp(&mut f, 1.0);
        // all land in cell (2,2,2)
        assert!((f.get(ivec3(2, 2, 2)) - 20.0).abs() < 1e-12);
        assert!((f.interior_sum() - 20.0).abs() < 1e-12);
        // outside-field particles skipped without panic
        s.particles[0].pos = [100.0, 0.0, 0.0];
        let mut g = Field3::zeros(Region::cube(8), 0);
        s.deposit_ngp(&mut g, 1.0);
        assert!((g.interior_sum() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn count_in_regions() {
        let s = ParticleSet::new(vec![
            Particle { pos: [1.5, 1.5, 1.5], vel: [0.0; 3], mass: 1.0 },
            Particle { pos: [6.5, 6.5, 6.5], vel: [0.0; 3], mass: 1.0 },
        ]);
        assert_eq!(s.count_in(Region::cube(4)), 1);
        assert_eq!(s.count_in(Region::cube(8)), 2);
    }
}
