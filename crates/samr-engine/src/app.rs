//! The evaluation applications: `ShockPool3D`, `AMR64`, and a scalar
//! quickstart workload.
//!
//! §5 of the paper: *"ShockPool3D solves a purely hyperbolic equation, while
//! AMR64 uses hyperbolic (fluid) equation and elliptic (Poisson's) equation
//! as well as a set of ordinary differential equations for the particle
//! trajectories. … AMR64 is designed to simulate the formation of a cluster
//! of galaxies, so many grids are randomly distributed across the whole
//! computational domain; ShockPool3D is designed to simulate the movement of
//! a shock wave (i.e., a plane) that is slightly tilted with respect to the
//! edges of the computational domain, so more and more grids are created
//! along the moving shock wave plane."*

use base::rng::ChaCha8;
use par::for_each_task_parallel;
use samr_mesh::field::Field3;
use samr_mesh::flag::{flag_cells, FlagField, RefineCriterion};
use samr_mesh::index::{ivec3, IVec3};
use samr_mesh::patch::GridPatch;
use samr_mesh::pool::FieldPool;
use samr_mesh::region::Region;
use samr_solvers::euler::{self, fields as F};
use samr_solvers::poisson;
use samr_solvers::{advection, Particle, ParticleSet};

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// Tilted planar shock driven by the 3-D Euler solver.
    ShockPool3D,
    /// Galaxy-cluster formation analog: Euler + Poisson + particles, with
    /// seeded overdense blobs scattered over the domain.
    Amr64,
    /// Scalar advected blob (cheap; used by quickstart and tests).
    AdvectBlob,
}

/// The variant's name, as a string.
impl base::json::ToJson for AppKind {
    fn to_json(&self) -> base::json::Json {
        base::json::Json::Str(format!("{self:?}"))
    }
}

/// Per-application state and physics dispatch.
#[derive(Clone, Debug)]
pub struct AppState {
    pub kind: AppKind,
    /// Adiabatic index for the Euler apps.
    pub gamma: f64,
    /// Refinement criteria evaluated on each patch.
    pub criteria: Vec<RefineCriterion>,
    /// Particles (AMR64 only; empty otherwise).
    pub particles: ParticleSet,
    /// Blob centers for AMR64's analytic infall acceleration (level-0 cell
    /// coordinates).
    pub wells: Vec<[f64; 3]>,
    /// Level-0 domain extent (cells per side).
    pub n0: i64,
    /// RNG seed used to build the initial conditions.
    pub seed: u64,
}

impl AppState {
    /// Build the application for a level-0 domain of `n0`³ cells.
    pub fn new(kind: AppKind, n0: i64, seed: u64) -> Self {
        let criteria = match kind {
            AppKind::ShockPool3D => vec![RefineCriterion::RelativeSlope {
                field: F::RHO,
                threshold: 0.08,
                eps: 1e-8,
            }],
            AppKind::Amr64 => vec![RefineCriterion::Overdensity {
                field: F::RHO,
                threshold: 2.2,
            }],
            AppKind::AdvectBlob => vec![RefineCriterion::Gradient {
                field: 0,
                threshold: 0.08,
            }],
        };
        let mut app = AppState {
            kind,
            gamma: 5.0 / 3.0,
            criteria,
            particles: ParticleSet::default(),
            wells: Vec::new(),
            n0,
            seed,
        };
        if kind == AppKind::Amr64 {
            app.build_amr64_ic();
        }
        app
    }

    /// Number of solution fields per patch.
    pub fn nfields(&self) -> usize {
        match self.kind {
            AppKind::ShockPool3D => euler::NFIELDS,
            // Euler fields + gravitational potential φ
            AppKind::Amr64 => euler::NFIELDS + 1,
            AppKind::AdvectBlob => 1,
        }
    }

    /// Ghost-zone width required by the solvers.
    pub fn ghost(&self) -> i64 {
        match self.kind {
            AppKind::AdvectBlob => 2, // minmod stencil
            _ => 1,
        }
    }

    /// Reference per-cell-update compute cost in seconds (on a weight-1.0
    /// processor). Calibrated to an Origin2000-class node running an
    /// ENZO-class hydro kernel.
    pub fn cost_per_cell(&self) -> f64 {
        match self.kind {
            AppKind::ShockPool3D => 3.0e-5,
            AppKind::Amr64 => 2.0e-5, // hydro + gravity + particles
            AppKind::AdvectBlob => 0.5e-6,
        }
    }

    /// A CFL-safe `dt/dx` ratio for level 0 given the initial conditions
    /// (each finer level uses the same Courant number by construction).
    pub fn dt_over_dx0(&self) -> f64 {
        match self.kind {
            // strong shock: post-shock signal speed stays under ~4.5
            AppKind::ShockPool3D => 0.10,
            AppKind::Amr64 => 0.15,
            AppKind::AdvectBlob => 0.5, // unit velocity
        }
    }

    fn build_amr64_ic(&mut self) {
        let mut rng = ChaCha8::seed_from_u64(self.seed);
        let n = self.n0 as f64;
        // a handful of overdense seeds scattered across the whole domain
        let nwells = 6;
        for _ in 0..nwells {
            self.wells.push([
                rng.range_f64(0.15 * n, 0.85 * n),
                rng.range_f64(0.15 * n, 0.85 * n),
                rng.range_f64(0.15 * n, 0.85 * n),
            ]);
        }
        // particles sampled around the wells with small infall velocities
        let mut particles = Vec::new();
        for w in &self.wells {
            for _ in 0..200 {
                let mut pos = [0.0; 3];
                for k in 0..3 {
                    pos[k] = (w[k] + rng.range_f64(-0.12 * n, 0.12 * n)).rem_euclid(n);
                }
                particles.push(Particle {
                    pos,
                    vel: [
                        rng.range_f64(-0.02, 0.02),
                        rng.range_f64(-0.02, 0.02),
                        rng.range_f64(-0.02, 0.02),
                    ],
                    mass: 1.0,
                });
            }
        }
        self.particles = ParticleSet::new(particles);
    }

    /// The position-dependent part of the initial condition — Amr64's
    /// density, AdvectBlob's blob, ShockPool3D's density jump — at every
    /// cell of `region`, as one field without ghosts per x-plane: the
    /// level-0 footprint, `domain.grow(ghost)`, which every level-0 grid's
    /// storage lies in. Each cell is evaluated once, on the worker pool,
    /// one task per plane; [`AppState::initial_fields_in`] then builds
    /// every level-0 grid's fields from it. Every value is a function of
    /// the cell's global position alone, so a ghost cell gets the bits of
    /// the interior cell a sibling holds there.
    ///
    /// The planes are buffers the size of a few grids' fields (135 KB at
    /// n0 = 128). One buffer of the whole footprint (17.6 MB), once freed,
    /// made the allocator serve every later buffer up to that size from
    /// its heap, which it keeps: `fed_g64`'s resident set grew by ~12 MB
    /// from the second run in a process on.
    ///
    /// Amr64's density is 1 plus one Gaussian term 2.5·exp(−r²/2σ²) per
    /// well, and a term is skipped where r² exceeds `2σ² · ln(2.5 · 2⁶⁰)`:
    /// there it is below 2⁻⁶⁰ (a 2⁷ margin over any `exp` error), while ρ
    /// never drops below 1, where half an ulp is 2⁻⁵³ — adding the term
    /// would round back to the same ρ, so skipping it changes no bit. A
    /// row is dropped for a well whose `dx² + dy²` alone exceeds the bound
    /// (adding `dz² ≥ 0` never rounds below it).
    pub fn initial_footprint(&self, region: Region) -> Vec<Field3> {
        let mut planes: Vec<Field3> = (region.lo.x..region.hi.x)
            .map(|x| {
                let lo = ivec3(x, region.lo.y, region.lo.z);
                let hi = ivec3(x + 1, region.hi.y, region.hi.z);
                Field3::zeros(Region { lo, hi }, 0)
            })
            .collect();
        for_each_task_parallel(&mut planes, |_, plane| {
            let (x, z0) = (plane.interior().lo.x, region.lo.z);
            let nz = region.size().z as usize;
            let rows = (region.lo.y..).zip(plane.data_mut().chunks_exact_mut(nz));
            let n0 = self.n0 as f64;
            match self.kind {
                AppKind::ShockPool3D => {
                    // high-pressure driver region behind a plane slightly tilted
                    // with respect to the domain edges: n̂ ∝ (1, 0.25, 0.1)
                    for (y, row) in rows {
                        for (dz, cell) in row.iter_mut().enumerate() {
                            let z = z0 + dz as i64;
                            let s = x as f64 + 0.25 * y as f64 + 0.1 * z as f64;
                            *cell = if s < 0.18 * n0 { SHOCK_DRIVER.0 } else { 1.0 };
                        }
                    }
                }
                AppKind::Amr64 => {
                    // Gaussian overdensities at the wells
                    let sigma = 0.05 * n0;
                    let two_s2 = (2.0 * sigma) * sigma;
                    let skip_r2 = well_reach_r2(two_s2);
                    // per row: dx² + dy² and z of each well within reach
                    let mut near: Vec<(f64, f64)> = Vec::with_capacity(self.wells.len());
                    for (y, row) in rows {
                        near.clear();
                        for w in &self.wells {
                            let dx = x as f64 + 0.5 - w[0];
                            let dy = y as f64 + 0.5 - w[1];
                            let dxy = dx * dx + dy * dy;
                            if dxy <= skip_r2 {
                                near.push((dxy, w[2]));
                            }
                        }
                        for (dz, cell) in row.iter_mut().enumerate() {
                            let z = (z0 + dz as i64) as f64 + 0.5;
                            let mut rho = 1.0f64;
                            for &(dxy, wz) in &near {
                                let dz = z - wz;
                                let r2 = dxy + dz * dz;
                                if r2 <= skip_r2 {
                                    rho += 2.5 * (-r2 / two_s2).exp();
                                }
                            }
                            *cell = rho;
                        }
                    }
                }
                AppKind::AdvectBlob => {
                    let c = [0.3 * n0, 0.5 * n0, 0.5 * n0];
                    let sigma = 0.08 * n0;
                    for (y, row) in rows {
                        let dx = x as f64 + 0.5 - c[0];
                        let dy = y as f64 + 0.5 - c[1];
                        for (dz, cell) in row.iter_mut().enumerate() {
                            let dz = (z0 + dz as i64) as f64 + 0.5 - c[2];
                            let r2 = dx * dx + dy * dy + dz * dz;
                            *cell = (-r2 / (2.0 * sigma * sigma)).exp();
                        }
                    }
                }
            }
        });
        planes
    }

    /// The initial fields of the level-0 grid over `region`, built in
    /// `buffers` — one empty, reserved buffer per field — with every
    /// storage cell written once: ρ (AdvectBlob's field) copied row by row
    /// from `footprint` ([`AppState::initial_footprint`], whose planes
    /// must cover the grid's storage), the energy (and ShockPool3D's x
    /// momentum) derived from the same rows, the other momenta and Amr64's
    /// φ zero. The fields come out in order, to be collected where the
    /// caller reserved room for them, so a pool task running this
    /// allocates nothing. Takes `&self` and nothing it writes but the
    /// buffers, so the driver builds all level-0 grids concurrently on the
    /// worker pool.
    pub fn initial_fields_in<'a>(
        &'a self,
        footprint: &'a [Field3],
        region: Region,
        buffers: Vec<Vec<f64>>,
    ) -> impl Iterator<Item = Field3> + 'a {
        assert_eq!(buffers.len(), self.nfields(), "one buffer per field");
        let (ghost, gamma) = (self.ghost(), self.gamma);
        let grid = (footprint, region, ghost);
        // ShockPool3D's ambient gas is at rest with ρ = 1, p = 1; its
        // driver region, the footprint's other density, moves at vx with
        // the energy of pressure pr
        let (rho, pr, vx) = SHOCK_DRIVER;
        let (mx, e) = (rho * vx, pr / (gamma - 1.0) + 0.5 * rho * vx * vx);
        let ambient_e = 1.0 / (gamma - 1.0);
        buffers
            .into_iter()
            .enumerate()
            .map(move |(k, buf)| match (self.kind, k) {
                (_, F::RHO) => from_footprint(grid, buf, |r| r),
                // near-isothermal start: p = 0.6 ρ
                (AppKind::Amr64, F::E) => from_footprint(grid, buf, |r| 0.6 * r / (gamma - 1.0)),
                (AppKind::ShockPool3D, F::MX) => {
                    from_footprint(grid, buf, |r| if r == rho { mx } else { 0.0 })
                }
                (AppKind::ShockPool3D, F::E) => {
                    from_footprint(grid, buf, |r| if r == rho { e } else { ambient_e })
                }
                _ => Field3::zeros_in(buf, region, ghost),
            })
    }

    /// One solver step on a patch at `level` with Courant ratio
    /// `dt_over_dx` (same at every level by construction). Ghosts must have
    /// been exchanged already. Only `AdvectBlob`'s double buffer is drawn
    /// from `pool` (the Euler sweeps run in place and the Poisson relaxation
    /// reads its right-hand side out of ρ).
    pub fn step_patch(&self, fields: &mut [Field3], dt_over_dx: f64, pool: &FieldPool) {
        match self.kind {
            AppKind::ShockPool3D => {
                euler::euler_step(fields, dt_over_dx, self.gamma);
            }
            AppKind::Amr64 => {
                euler::euler_step(&mut fields[..euler::NFIELDS], dt_over_dx, self.gamma);
                // a few relaxation sweeps of ∇²φ = (ρ − ρ̄) each step — the
                // elliptic component (fully converging each step is not
                // necessary for the workload dynamics, matching how cosmology
                // codes carry the potential forward between steps)
                let (head, tail) = fields.split_at_mut(euler::NFIELDS);
                for _ in 0..2 {
                    poisson::rbgs_sweep_shifted(&mut tail[0], &head[F::RHO], 1.0, 1.0);
                }
            }
            AppKind::AdvectBlob => {
                let c = dt_over_dx;
                advection::advect_step(&mut fields[0], [c, 0.6 * c, 0.0], true, pool);
            }
        }
    }

    /// How many ghost layers of `field` across the faces normal to each axis
    /// [`AppState::step_patch`] depends on — the part of the shell the
    /// exchange before a solve must write. Every other ghost cell of the
    /// field is rewritten by the step before anything reads it.
    ///
    /// - The Euler conserved fields: `(g, 0, 0)`. `euler::euler_step` reads
    ///   exchanged ghosts only in its x sweep, and only across the x faces;
    ///   the y sweep takes its line ends from the end rows, and the
    ///   zero-gradient refill before the z sweep rewrites the whole shell.
    /// - Amr64's φ: the whole shell. The Poisson stencil reads all six
    ///   faces, and the step leaves the ghosts as exchanged, edges and
    ///   corners included: they are part of the field's state, which the
    ///   field pins hash cell by cell.
    /// - AdvectBlob's field: the whole shell. The step does not refill its
    ///   ghosts, and the flags of the regrid after it read them.
    pub fn solve_ghost_reach(&self, field: usize) -> IVec3 {
        let g = self.ghost();
        let euler = matches!(self.kind, AppKind::ShockPool3D | AppKind::Amr64);
        if euler && field < euler::NFIELDS {
            ivec3(g, 0, 0)
        } else {
            IVec3::splat(g)
        }
    }

    /// How many ghost layers of `field` across the faces normal to each axis
    /// [`AppState::flag_patch`] reads — the part of the shell the set-up
    /// cascade's exchange must write before each regrid. Read off
    /// `criteria`: `Gradient` and `RelativeSlope` difference each interior
    /// cell with its face neighbours, one layer deep; `Overdensity`, and
    /// Amr64's particle deposit onto a copy of ρ, read the interior alone.
    /// So the reach is ρ's whole shell for ShockPool3D, field 0's first
    /// layer for AdvectBlob, and nothing for Amr64.
    pub fn flag_ghost_reach(&self, field: usize) -> IVec3 {
        let faces = self.criteria.iter().any(|c| match *c {
            RefineCriterion::Gradient { field: f, .. }
            | RefineCriterion::RelativeSlope { field: f, .. } => f == field,
            RefineCriterion::Overdensity { .. } => false,
        });
        if faces {
            IVec3::ONE
        } else {
            IVec3::ZERO
        }
    }

    /// Advance global (non-grid) state once per level-0 step: AMR64's
    /// particle trajectories.
    pub fn post_level0_step(&mut self, dt0: f64, domain: Region) {
        if self.kind != AppKind::Amr64 {
            return;
        }
        let wells = self.wells.clone();
        let n0 = self.n0 as f64;
        self.particles.leapfrog(dt0, domain, move |pos| {
            // analytic infall toward the wells (softened point masses)
            let mut a = [0.0f64; 3];
            let soft2 = (0.03 * n0) * (0.03 * n0);
            for w in &wells {
                let d = [w[0] - pos[0], w[1] - pos[1], w[2] - pos[2]];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + soft2;
                let inv = 8.0 / (r2 * r2.sqrt());
                for k in 0..3 {
                    a[k] += d[k] * inv;
                }
            }
            a
        });
    }

    /// Evaluate the refinement criteria on a patch. For `AMR64` the density
    /// seen by the criterion is gas density *plus* the particle overdensity
    /// (deposited NGP onto a scratch copy — particles dominate structure
    /// formation, so refinement must follow them as they fall in), matching
    /// how cosmology codes flag on total matter density. A patch no particle
    /// lies in flags on its gas density as it is, without the copy.
    pub fn flag_patch(&self, patch: &GridPatch, pool: &FieldPool) -> FlagField {
        if self.kind == AppKind::Amr64 && patch.level == 0 && self.particles.any_in(patch.region) {
            let mut rho = patch.fields[F::RHO].clone_in(pool);
            self.particles.deposit_ngp(&mut rho, 0.05);
            flag_cells(std::slice::from_ref(&rho), &self.criteria)
        } else {
            flag_cells(&patch.fields, &self.criteria)
        }
    }
}

/// ShockPool3D's driver region: density, pressure and x velocity.
const SHOCK_DRIVER: (f64, f64, f64) = (4.0, 12.0, 1.2);

/// The squared distance beyond which an Amr64 well's density term
/// `2.5 · exp(−r² / two_s2)` is below 2⁻⁶⁰ (see
/// [`AppState::initial_footprint`]).
fn well_reach_r2(two_s2: f64) -> f64 {
    two_s2 * (2.5 * 2f64.powi(60)).ln()
}

/// The field over `region` with `ghost` ghost cells built in `buf`, row by
/// row, each storage cell `value` of the footprint's value there.
fn from_footprint(
    (footprint, region, ghost): (&[Field3], Region, i64),
    buf: Vec<f64>,
    value: impl Fn(f64) -> f64,
) -> Field3 {
    let (x0, zs) = (footprint[0].interior().lo.x, region.grow(ghost));
    Field3::from_rows_in(buf, region, ghost, |x, y| {
        let plane = &footprint[(x - x0) as usize];
        plane.data()[plane.storage_region().row_range(x, y, zs.lo.z, zs.hi.z)]
            .iter()
            .map(|&r| value(r))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::patch::PatchId;

    impl AppState {
        /// The initial condition of one grid, written into `fields` through
        /// the level-0 path: the footprint of the grid's storage and the
        /// grid's fields built from it in fresh buffers. Like the per-grid
        /// form this replaced, it writes the Euler fields and leaves Amr64's
        /// φ as it was (the level-0 build writes it zero).
        fn init_fields(&self, fields: &mut [Field3]) {
            let (region, storage) = (fields[0].interior(), fields[0].storage_region());
            let footprint = self.initial_footprint(storage);
            let buffers = fields
                .iter()
                .map(|f| Vec::with_capacity(f.data().len()))
                .collect();
            let built = self.initial_fields_in(&footprint, region, buffers);
            for (f, b) in fields.iter_mut().zip(built).take(euler::NFIELDS) {
                *f = b;
            }
        }

        /// The per-cell initial condition the row-wise one replaced, kept
        /// verbatim: every well's term at every cell, no bound, one `set`
        /// per cell. The oracle `init_fields` is compared against.
        pub(crate) fn init_fields_reference(&self, fields: &mut [Field3]) {
            match self.kind {
                AppKind::ShockPool3D => {
                    let gamma = self.gamma;
                    euler::set_ambient(fields, 1.0, [0.0; 3], 1.0, gamma);
                    let n0 = self.n0 as f64;
                    for p in fields[0].storage_region().iter_cells() {
                        let s = p.x as f64 + 0.25 * p.y as f64 + 0.1 * p.z as f64;
                        if s < 0.18 * n0 {
                            let rho = 4.0;
                            let pr = 12.0;
                            let vx = 1.2;
                            let e = pr / (gamma - 1.0) + 0.5 * rho * vx * vx;
                            fields[F::RHO].set(p, rho);
                            fields[F::MX].set(p, rho * vx);
                            fields[F::E].set(p, e);
                        }
                    }
                }
                AppKind::Amr64 => {
                    let gamma = self.gamma;
                    euler::set_ambient(fields, 1.0, [0.0; 3], 0.6, gamma);
                    let n0 = self.n0 as f64;
                    let sigma = 0.05 * n0;
                    for p in fields[0].storage_region().iter_cells() {
                        let mut rho = 1.0f64;
                        for w in &self.wells {
                            let dx = p.x as f64 + 0.5 - w[0];
                            let dy = p.y as f64 + 0.5 - w[1];
                            let dz = p.z as f64 + 0.5 - w[2];
                            let r2 = dx * dx + dy * dy + dz * dz;
                            rho += 2.5 * (-r2 / (2.0 * sigma * sigma)).exp();
                        }
                        let pr = 0.6 * rho;
                        fields[F::RHO].set(p, rho);
                        fields[F::E].set(p, pr / (gamma - 1.0));
                    }
                }
                AppKind::AdvectBlob => {
                    let n0 = self.n0 as f64;
                    let c = [0.3 * n0, 0.5 * n0, 0.5 * n0];
                    let sigma = 0.08 * n0;
                    for p in fields[0].storage_region().iter_cells() {
                        let dx = p.x as f64 + 0.5 - c[0];
                        let dy = p.y as f64 + 0.5 - c[1];
                        let dz = p.z as f64 + 0.5 - c[2];
                        let r2 = dx * dx + dy * dy + dz * dz;
                        fields[0].set(p, (-r2 / (2.0 * sigma * sigma)).exp());
                    }
                }
            }
        }

        /// [`AppState::step_patch`] through the retained per-cell
        /// `reference` solver modules (update-list sweeps, two Riemann
        /// solves per cell, a materialised ρ − ρ̄ right-hand side): the
        /// oracle `step_patch` is compared against.
        fn step_patch_reference(&self, fields: &mut [Field3], dt_over_dx: f64, pool: &FieldPool) {
            match self.kind {
                AppKind::ShockPool3D => {
                    euler::reference::euler_step(fields, dt_over_dx, self.gamma);
                }
                AppKind::Amr64 => {
                    euler::reference::euler_step(
                        &mut fields[..euler::NFIELDS],
                        dt_over_dx,
                        self.gamma,
                    );
                    let (head, tail) = fields.split_at_mut(euler::NFIELDS);
                    let rho = &head[F::RHO];
                    let phi = &mut tail[0];
                    let mut rhs = rho.clone_in(pool);
                    samr_mesh::field::reference::map_interior(&mut rhs, |_, v| v - 1.0);
                    for _ in 0..2 {
                        poisson::reference::rbgs_sweep(phi, &rhs, 1.0);
                    }
                }
                AppKind::AdvectBlob => {
                    let c = dt_over_dx;
                    advection::reference::advect_step(&mut fields[0], [c, 0.6 * c, 0.0], true);
                }
            }
        }
    }

    /// Every arm of `step_patch` lands on the reference modules' bits, on
    /// a box of uneven extents and on the two-cell-thick sliver most
    /// mid-run patches are, ghosts filled with data of their own.
    #[test]
    fn step_patch_matches_the_reference_modules_for_every_app() {
        use samr_mesh::{ivec3, region};
        let pool = FieldPool::new();
        let boxes = [
            region(ivec3(-2, 3, 1), ivec3(5, 8, 14)),
            region(ivec3(4, 0, -3), ivec3(6, 9, 8)),
        ];
        let bits = |fs: &[Field3]| -> Vec<Vec<u64>> {
            fs.iter()
                .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for kind in [AppKind::ShockPool3D, AppKind::Amr64, AppKind::AdvectBlob] {
            let app = AppState::new(kind, 16, 7);
            for (i, &interior) in boxes.iter().enumerate() {
                let mut rng = base::rng::SplitMix64::new(0x5eed + i as u64);
                // subsonic states of positive pressure; φ and the scalar
                // take the density's range
                let mut fields: Vec<Field3> = (0..app.nfields())
                    .map(|k| {
                        let mut f = Field3::zeros(interior, app.ghost());
                        for v in f.data_mut() {
                            *v = match k {
                                F::MX | F::MY | F::MZ => 0.6 * rng.next_f64() - 0.3,
                                F::E => 1.0 + 2.0 * rng.next_f64(),
                                _ => 0.5 + rng.next_f64(),
                            };
                        }
                        f
                    })
                    .collect();
                let before = bits(&fields);
                let mut oracle = fields.clone();
                app.step_patch(&mut fields, app.dt_over_dx0(), &pool);
                app.step_patch_reference(&mut oracle, app.dt_over_dx0(), &pool);
                assert_ne!(
                    bits(&fields),
                    before,
                    "{kind:?} {interior:?}: nothing stepped"
                );
                assert_eq!(bits(&fields), bits(&oracle), "{kind:?} {interior:?}");
            }
        }
    }

    fn bits(fs: &[Field3]) -> Vec<Vec<u64>> {
        fs.iter()
            .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `init_fields` writes the reference's bits into every storage cell,
    /// ghosts included, of a 64³ domain cut unevenly into 12 patches (11
    /// with non-zero origins), for every app. The Amr64 skip radius there
    /// is ~29.5 cells, so most (cell, well) pairs take the skip.
    #[test]
    fn init_fields_matches_the_reference_for_every_app() {
        use samr_mesh::{ivec3, region};
        let n0 = 64;
        let cuts: [&[i64]; 3] = [&[0, 21, 43, 64], &[0, 30, 64], &[0, 17, 64]];
        let mut boxes = Vec::new();
        for x in cuts[0].windows(2) {
            for y in cuts[1].windows(2) {
                for z in cuts[2].windows(2) {
                    boxes.push(region(ivec3(x[0], y[0], z[0]), ivec3(x[1], y[1], z[1])));
                }
            }
        }
        assert_eq!(boxes.len(), 12);
        for kind in [AppKind::ShockPool3D, AppKind::Amr64, AppKind::AdvectBlob] {
            let app = AppState::new(kind, n0, 7);
            for &interior in &boxes {
                // poisoned, so a cell either side leaves unwritten shows
                let mut fields: Vec<Field3> = (0..app.nfields())
                    .map(|_| Field3::constant(interior, app.ghost(), f64::NAN))
                    .collect();
                let mut oracle = fields.clone();
                app.init_fields(&mut fields);
                app.init_fields_reference(&mut oracle);
                assert_eq!(bits(&fields), bits(&oracle), "{kind:?} {interior:?}");
            }
        }
        // the Amr64 case exercised the skip on most (cell, well) pairs
        let app = AppState::new(AppKind::Amr64, n0, 7);
        let sigma = 0.05 * n0 as f64;
        let reach = well_reach_r2((2.0 * sigma) * sigma);
        let (mut skipped, mut pairs) = (0u64, 0u64);
        for p in Region::cube(n0).iter_cells() {
            for w in &app.wells {
                let d = [0, 1, 2].map(|k| p[k] as f64 + 0.5 - w[k]);
                pairs += 1;
                skipped += u64::from(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > reach);
            }
        }
        assert!(2 * skipped > pairs, "{skipped} of {pairs} pairs skipped");
    }

    /// The premise of the Amr64 skip: the largest term it drops is below
    /// 2⁻⁵³, half an ulp of any ρ ≥ 1, so adding it leaves ρ's bits as
    /// they were.
    #[test]
    fn a_skipped_well_term_cannot_change_rho() {
        for n0 in [16, 32, 64, 128] {
            let sigma = 0.05 * n0 as f64;
            let two_s2 = (2.0 * sigma) * sigma;
            let far = well_reach_r2(two_s2);
            let t = 2.5 * (-far / two_s2).exp();
            assert!(t < 2f64.powi(-53), "n0 {n0}: {t:e}");
            let ulp = 2f64.powi(-52);
            for rho in [1.0, 1.0 + ulp, 1.5, 2.0 - ulp, 2.0, 7.25] {
                assert_eq!((rho + t).to_bits(), rho.to_bits(), "n0 {n0}, rho {rho}");
            }
        }
    }

    /// The initial conditions are a function of the seed through
    /// `base::rng::ChaCha8`; the hashes are those of the `rand` /
    /// `rand_chacha` stand-ins every committed result was produced with.
    #[test]
    fn amr64_initial_particles_are_pinned() {
        for (n0, seed, pinned) in [
            (32, 42, 0xd6c58fd426f94a2c_u64),
            (64, 20011110, 0x6dfcd258f7a1157c),
        ] {
            let app = AppState::new(AppKind::Amr64, n0, seed);
            assert_eq!(app.particles.len(), 1200);
            let hash = app
                .particles
                .as_slice()
                .iter()
                .flat_map(|p| p.pos.into_iter().chain(p.vel))
                .fold(0, |h, x| base::rng::splitmix64(h ^ x.to_bits()));
            assert_eq!(hash, pinned, "n0 {n0}, seed {seed}: {hash:#018x}");
        }
    }

    fn patch_for(app: &AppState) -> GridPatch {
        GridPatch::new(
            PatchId(0),
            0,
            Region::cube(app.n0),
            None,
            0,
            app.nfields(),
            app.ghost(),
        )
    }

    #[test]
    fn shockpool_ic_has_tilted_jump() {
        let pool = FieldPool::new();
        let app = AppState::new(AppKind::ShockPool3D, 16, 1);
        let mut p = patch_for(&app);
        app.init_fields(&mut p.fields);
        // driver region dense, ambient 1.0
        assert!(p.fields[F::RHO].get(samr_mesh::ivec3(0, 0, 0)) > 3.0);
        assert!((p.fields[F::RHO].get(samr_mesh::ivec3(12, 12, 12)) - 1.0).abs() < 1e-12);
        // flags appear along the jump plane
        let flags = app.flag_patch(&p, &pool);
        assert!(flags.count() > 0);
        // the plane is tilted: flagged x position differs with y
        let bb = flags.bounding_box();
        assert!(bb.size().x >= 1);
    }

    #[test]
    fn amr64_ic_scattered_blobs_and_particles() {
        let pool = FieldPool::new();
        let app = AppState::new(AppKind::Amr64, 16, 7);
        assert_eq!(app.wells.len(), 6);
        assert_eq!(app.particles.len(), 1200);
        let mut p = patch_for(&app);
        app.init_fields(&mut p.fields);
        let flags = app.flag_patch(&p, &pool);
        assert!(flags.count() > 0, "overdense blobs must be flagged");
        // determinism: same seed, same wells
        let app2 = AppState::new(AppKind::Amr64, 16, 7);
        assert_eq!(app.wells, app2.wells);
        let app3 = AppState::new(AppKind::Amr64, 16, 8);
        assert_ne!(app.wells, app3.wells);
    }

    #[test]
    fn advect_blob_moves_flags() {
        let pool = FieldPool::new();
        let app = AppState::new(AppKind::AdvectBlob, 16, 0);
        let mut p = patch_for(&app);
        app.init_fields(&mut p.fields);
        let bb0 = app.flag_patch(&p, &pool).bounding_box();
        for _ in 0..6 {
            for f in p.fields.iter_mut() {
                f.fill_ghosts_zero_gradient();
            }
            app.step_patch(&mut p.fields, app.dt_over_dx0(), &pool);
        }
        let bb1 = app.flag_patch(&p, &pool).bounding_box();
        assert!(!bb0.is_empty() && !bb1.is_empty());
        assert!(bb1.lo.x > bb0.lo.x, "blob flags moved downstream: {bb0:?} -> {bb1:?}");
    }

    #[test]
    fn shockpool_step_advances_shock() {
        let pool = FieldPool::new();
        let app = AppState::new(AppKind::ShockPool3D, 16, 1);
        let mut p = patch_for(&app);
        app.init_fields(&mut p.fields);
        let probe = samr_mesh::ivec3(8, 2, 2);
        let before = p.fields[F::RHO].get(probe);
        for _ in 0..12 {
            for f in p.fields.iter_mut() {
                f.fill_ghosts_zero_gradient();
            }
            app.step_patch(&mut p.fields, app.dt_over_dx0(), &pool);
        }
        let after = p.fields[F::RHO].get(probe);
        assert!(after > before * 1.02, "shock reached probe: {before} -> {after}");
    }

    #[test]
    fn amr64_step_patch_leaves_the_pool_alone() {
        let pool = FieldPool::new();
        let app = AppState::new(AppKind::Amr64, 8, 7);
        let mut p = patch_for(&app);
        app.init_fields(&mut p.fields);
        let before = pool.stats();
        app.step_patch(&mut p.fields, app.dt_over_dx0(), &pool);
        assert_eq!(pool.stats(), before, "the Amr64 step takes no scratch field");
    }

    #[test]
    fn amr64_particles_fall_inward() {
        let mut app = AppState::new(AppKind::Amr64, 32, 3);
        let domain = Region::cube(32);
        let well = app.wells[0];
        let dist = |p: &Particle| {
            ((p.pos[0] - well[0]).powi(2)
                + (p.pos[1] - well[1]).powi(2)
                + (p.pos[2] - well[2]).powi(2))
            .sqrt()
        };
        // mean distance of the first well's 200 particles must shrink
        let d0: f64 = app.particles.as_slice()[..200]
            .iter()
            .map(dist)
            .sum::<f64>()
            / 200.0;
        for _ in 0..10 {
            app.post_level0_step(0.3, domain);
        }
        let d1: f64 = app.particles.as_slice()[..200]
            .iter()
            .map(dist)
            .sum::<f64>()
            / 200.0;
        assert!(d1 < d0, "infall: {d0} -> {d1}");
    }

    #[test]
    fn amr64_flags_follow_particles() {
        let pool = FieldPool::new();
        // concentrate particles in an otherwise-unflagged corner: the level-0
        // flags must light up there
        let mut app = AppState::new(AppKind::Amr64, 16, 3);
        let mut p = patch_for(&app);
        app.init_fields(&mut p.fields);
        // strip the gas blobs so only particles can flag
        samr_solvers::euler::set_ambient(&mut p.fields, 1.0, [0.0; 3], 0.6, app.gamma);
        let corner = samr_mesh::ivec3(1, 1, 1);
        let mut moved = app.particles.as_slice().to_vec();
        for (i, part) in moved.iter_mut().enumerate() {
            if i < 400 {
                part.pos = [1.2, 1.4, 1.1];
            } else {
                part.pos = [100.0, 100.0, 100.0]; // outside, ignored
            }
        }
        app.particles = ParticleSet::new(moved);
        let flags = app.flag_patch(&p, &pool);
        assert!(flags.get(corner), "particle clump must be flagged");
        // without particles the same gas field is quiet
        app.particles = samr_solvers::ParticleSet::default();
        let flags = app.flag_patch(&p, &pool);
        assert_eq!(flags.count(), 0);
    }

    /// The flagging reach is read off the criteria: one face layer of each
    /// field a face-difference criterion reads, nothing elsewhere — also for
    /// a criteria list no app ships.
    #[test]
    fn flag_ghost_reach_follows_the_criteria() {
        let reach = |app: &AppState| -> Vec<IVec3> {
            (0..app.nfields()).map(|k| app.flag_ghost_reach(k)).collect()
        };
        let only = |k: usize| {
            let mut r = [IVec3::ZERO; 5];
            r[k] = IVec3::ONE;
            r
        };
        let mut shock = AppState::new(AppKind::ShockPool3D, 8, 0);
        assert_eq!(reach(&shock), only(F::RHO));
        assert_eq!(reach(&AppState::new(AppKind::Amr64, 8, 0)), [IVec3::ZERO; 6]);
        assert_eq!(reach(&AppState::new(AppKind::AdvectBlob, 8, 0)), [IVec3::ONE]);
        shock.criteria = vec![
            RefineCriterion::Overdensity { field: F::RHO, threshold: 2.0 },
            RefineCriterion::Gradient { field: F::E, threshold: 0.1 },
        ];
        assert_eq!(reach(&shock), only(F::E));
    }

    #[test]
    fn nfields_and_ghosts_consistent() {
        assert_eq!(AppState::new(AppKind::ShockPool3D, 8, 0).nfields(), 5);
        assert_eq!(AppState::new(AppKind::Amr64, 8, 0).nfields(), 6);
        assert_eq!(AppState::new(AppKind::AdvectBlob, 8, 0).nfields(), 1);
        assert_eq!(AppState::new(AppKind::AdvectBlob, 8, 0).ghost(), 2);
    }
}
