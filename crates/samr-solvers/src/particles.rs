//! Collisionless particles with leapfrog (kick–drift–kick) integration and
//! nearest-grid-point deposition — the "set of ordinary differential
//! equations for the particle trajectories" of the `AMR64` dataset.

use base::json::{self, FromJson, Json, ToJson};
use samr_mesh::field::Field3;
use samr_mesh::index::{ivec3, IVec3};
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

/// A set of particles living on the level-0 domain, with a (cell, index)
/// list sorted by cell so a box's particles are found by binary search on x.
#[derive(Clone, Debug, Default)]
pub struct ParticleSet {
    particles: Vec<Particle>,
    by_cell: Vec<(IVec3, u32)>,
}

impl ToJson for ParticleSet {
    fn to_json(&self) -> Json {
        base::json_fields!(self; particles)
    }
}

impl FromJson for ParticleSet {
    fn from_json(v: &Json) -> Result<Self, json::Error> {
        Ok(ParticleSet::new(v.field("particles")?))
    }
}

/// The level-0 cell a particle lies in.
fn cell_of(p: &Particle) -> IVec3 {
    ivec3(
        p.pos[0].floor() as i64,
        p.pos[1].floor() as i64,
        p.pos[2].floor() as i64,
    )
}

impl ParticleSet {
    pub fn new(particles: Vec<Particle>) -> Self {
        let mut set = ParticleSet {
            particles,
            by_cell: Vec::new(),
        };
        set.index_cells();
        set
    }

    pub fn len(&self) -> usize {
        self.particles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// The particles, in the order they were created.
    pub fn as_slice(&self) -> &[Particle] {
        &self.particles
    }

    fn index_cells(&mut self) {
        self.by_cell.clear();
        let cells = self.particles.iter().map(cell_of);
        self.by_cell.extend(cells.zip(0..));
        self.by_cell.sort_unstable();
    }

    /// The (cell, index) entries whose cell's x lies in `region`'s x range.
    fn x_slab(&self, region: Region) -> &[(IVec3, u32)] {
        let lo = self.by_cell.partition_point(|(c, _)| c.x < region.lo.x);
        let hi = self.by_cell.partition_point(|(c, _)| c.x < region.hi.x);
        &self.by_cell[lo..hi.max(lo)]
    }

    /// `true` if some particle's cell lies inside `region`.
    pub fn any_in(&self, region: Region) -> bool {
        self.x_slab(region).iter().any(|&(c, _)| region.contains(c))
    }

    /// Velocity kick: `v += a(pos) · dt`.
    fn kick(&mut self, dt: f64, accel: impl Fn([f64; 3]) -> [f64; 3]) {
        for p in &mut self.particles {
            let a = accel(p.pos);
            for k in 0..3 {
                p.vel[k] += a[k] * dt;
            }
        }
    }

    /// Position drift: `x += v · dt`, with periodic wrapping into `domain`
    /// (level-0 cell coordinates).
    fn drift(&mut self, dt: f64, domain: Region) {
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
        self.index_cells();
    }

    /// Deposit particle mass onto `field` (whose interior is in the same
    /// level-0 coordinates) with nearest-grid-point weighting, scaled by
    /// `scale` (mass→density conversion). Particles outside the field's
    /// interior are skipped. Only the particles in the interior's x range
    /// are visited, in (cell, index) order: each cell receives the same
    /// additions in the same order as a pass over all particles, so the
    /// bits are those of that pass.
    pub fn deposit_ngp(&self, field: &mut Field3, scale: f64) {
        let interior = field.interior();
        for &(c, i) in self.x_slab(interior) {
            if interior.contains(c) {
                *field.at_mut(c) += self.particles[i as usize].mass * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::region::region;

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
        let p = s.as_slice()[0];
        assert!((p.pos[0] - 3.0).abs() < 1e-12);
        assert!((p.pos[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_wrap() {
        let mut s = one([15.5, 0.0, 0.0], [1.0, -1.0, 0.0]);
        s.drift(1.0, Region::cube(16));
        let p = s.as_slice()[0];
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
            let p = s.as_slice()[0];
            let e = 0.5 * p.vel[0] * p.vel[0] + 0.5 * (p.pos[0] - center).powi(2);
            max_dev = max_dev.max((e - e0).abs() / e0);
        }
        assert!(max_dev < 0.01, "energy deviation {max_dev}");
    }

    #[test]
    fn deposit_ngp_sums_mass() {
        let mut particles: Vec<Particle> = (0..10)
            .map(|i| Particle {
                pos: [2.3, 2.7, i as f64 / 10.0 + 2.0],
                vel: [0.0; 3],
                mass: 2.0,
            })
            .collect();
        let s = ParticleSet::new(particles.clone());
        let mut f = Field3::zeros(Region::cube(8), 0);
        s.deposit_ngp(&mut f, 1.0);
        // all land in cell (2,2,2)
        assert!((f.get(ivec3(2, 2, 2)) - 20.0).abs() < 1e-12);
        assert!((f.interior_sum() - 20.0).abs() < 1e-12);
        // outside-field particles skipped without panic
        particles[0].pos = [100.0, 0.0, 0.0];
        let s = ParticleSet::new(particles);
        let mut g = Field3::zeros(Region::cube(8), 0);
        s.deposit_ngp(&mut g, 1.0);
        assert!((g.interior_sum() - 18.0).abs() < 1e-12);
    }

    /// Depositing through the cell index lands on the bits of one pass
    /// over every particle in creation order, on boxes that cut the
    /// particle cloud anywhere — after a leapfrog step moved it, and after
    /// a JSON round trip rebuilt the index.
    #[test]
    fn deposit_ngp_matches_a_pass_over_every_particle() {
        let naive = |s: &ParticleSet, f: &mut Field3| {
            let interior = f.interior();
            for p in s.as_slice() {
                if interior.contains(cell_of(p)) {
                    *f.at_mut(cell_of(p)) += p.mass * 0.05;
                }
            }
        };
        let mut rng = base::rng::ChaCha8::seed_from_u64(5);
        let particles = (0..600)
            .map(|_| Particle {
                pos: [0; 3].map(|_| rng.range_f64(0.0, 16.0)),
                vel: [0; 3].map(|_| rng.range_f64(-2.0, 2.0)),
                mass: rng.range_f64(0.5, 1.5),
            })
            .collect();
        let mut s = ParticleSet::new(particles);
        let boxes = [
            Region::cube(16),
            region(ivec3(3, 0, 5), ivec3(9, 16, 11)),
            region(ivec3(15, 15, 15), ivec3(17, 17, 17)),
            region(ivec3(-2, 4, 4), ivec3(2, 8, 8)),
        ];
        for round in 0..3 {
            if round == 1 {
                s.leapfrog(0.7, Region::cube(16), |p| [8.0 - p[0], 0.0, 0.0]);
            }
            if round == 2 {
                s = json::from_str(&ToJson::to_json(&s).to_compact()).unwrap();
            }
            for b in boxes {
                let (mut fast, mut slow) = (Field3::zeros(b, 1), Field3::zeros(b, 1));
                s.deposit_ngp(&mut fast, 0.05);
                naive(&s, &mut slow);
                let bits = |f: &Field3| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "round {round}, {b:?}");
                assert_eq!(
                    s.any_in(b),
                    slow.interior_sum() > 0.0,
                    "round {round}, {b:?}"
                );
            }
        }
    }
}
