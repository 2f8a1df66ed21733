//! Coarse–fine flux registers: the Berger–Colella conservation fix-up.
//!
//! When a coarse cell abuts a refined region, the coarse update used the
//! coarse flux at the shared face while the fine grid advanced with its own
//! (better) fluxes — so mass/momentum/energy leak at the interface unless
//! the coarse cell is corrected by the difference between the coarse flux
//! and the time-and-space average of the fine fluxes.
//!
//! A [`FluxRegister`] accumulates `F_coarse − ⟨F_fine⟩` per interface face
//! and [`FluxRegister::apply`] adds `± dt/dx · Δ` to the adjacent uncovered
//! coarse cells (sign by face orientation).
//!
//! Tested, but not yet called by any driver path: the engine does not
//! reflux (DESIGN.md §5, known deviation iii).

use crate::field::Field3;
use crate::index::IVec3;
use std::collections::BTreeMap;

/// Accumulator of flux mismatches along the boundary of one refined region.
#[derive(Clone, Debug)]
pub struct FluxRegister {
    r: i64,
    nfields: usize,
    /// Signed accumulated mismatch per (outside coarse cell, field); applied
    /// as `U += dt_over_dx * value`.
    acc: BTreeMap<(IVec3, usize), f64>,
}

impl FluxRegister {
    /// A register for refinement factor `r` and `nfields` conserved fields.
    pub fn new(r: i64, nfields: usize) -> Self {
        assert!(r >= 2);
        assert!(nfields > 0);
        FluxRegister {
            r,
            nfields,
            acc: BTreeMap::new(),
        }
    }

    /// Number of coarse faces carrying a non-trivial correction so far.
    pub fn touched_faces(&self) -> usize {
        self.acc.len() / self.nfields.max(1)
    }

    fn sign(fine_on_high: bool) -> f64 {
        // fine region on the outside cell's HIGH side ⇒ the shared face is
        // the outside cell's high face, whose flux enters with −dt/dx; the
        // correction ΔU = dt/dx (F_c − ⟨F_f⟩) ⇒ +F_c, −⟨F_f⟩.
        if fine_on_high {
            1.0
        } else {
            -1.0
        }
    }

    /// Record the coarse flux used at the face between the uncovered coarse
    /// cell `outside` and the fine region, which lies on `outside`'s
    /// high/low side of `axis` per `fine_on_high`.
    pub fn record_coarse(
        &mut self,
        outside: IVec3,
        _axis: usize,
        fine_on_high: bool,
        flux: &[f64],
    ) {
        assert_eq!(flux.len(), self.nfields);
        let s = Self::sign(fine_on_high);
        for (k, &f) in flux.iter().enumerate() {
            *self.acc.entry((outside, k)).or_default() += s * f;
        }
    }

    /// Record one fine face flux on the same interface. `fine_cell` is the
    /// fine cell *inside* the fine region adjacent to the face. `weight` is
    /// the space-time averaging factor — `1 / (r^(d−1) · r_time)`, i.e.
    /// `1/(r²·r)` for 3-D sub-cycled advance (r² face cells, r sub-steps).
    pub fn record_fine(
        &mut self,
        fine_cell: IVec3,
        axis: usize,
        fine_on_high: bool,
        flux: &[f64],
        weight: f64,
    ) {
        assert_eq!(flux.len(), self.nfields);
        let coarse_inside = fine_cell.div_floor(self.r);
        let mut outside = coarse_inside;
        if fine_on_high {
            outside[axis] -= 1;
        } else {
            outside[axis] += 1;
        }
        let s = Self::sign(fine_on_high);
        for (k, &f) in flux.iter().enumerate() {
            *self.acc.entry((outside, k)).or_default() -= s * weight * f;
        }
    }

    /// The canonical space-time fine-flux weight for 3-D sub-cycling.
    pub fn fine_weight(&self) -> f64 {
        1.0 / (self.r * self.r * self.r) as f64
    }

    /// Apply the accumulated corrections to the coarse fields:
    /// `U[cell] += dt_over_dx · Δ[cell]` for every touched cell that lies in
    /// the fields' interior. Clears the register.
    pub fn apply(&mut self, fields: &mut [Field3], dt_over_dx: f64) {
        assert!(fields.len() >= self.nfields);
        for (&(cell, k), &v) in &self.acc {
            if fields[k].interior().contains(cell) {
                *fields[k].at_mut(cell) += dt_over_dx * v;
            }
        }
        self.acc.clear();
    }

    /// Peek at the accumulated correction for `(cell, field)`.
    pub fn correction(&self, cell: IVec3, field: usize) -> f64 {
        self.acc.get(&(cell, field)).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ivec3;
    use crate::region::Region;

    #[test]
    fn matching_fluxes_cancel_exactly() {
        // fine average equals the coarse flux ⇒ zero correction
        let mut reg = FluxRegister::new(2, 1);
        let outside = ivec3(3, 2, 2);
        reg.record_coarse(outside, 0, true, &[6.0]);
        // the interface face covers 2x2 fine faces for 2 sub-steps = 8 records
        let w = reg.fine_weight();
        for dy in 0..2 {
            for dz in 0..2 {
                for _substep in 0..2 {
                    // fine cells just inside the fine region (x = 8 = 4*r)
                    reg.record_fine(ivec3(8, 4 + dy, 4 + dz), 0, true, &[6.0], w);
                }
            }
        }
        assert!(reg.correction(outside, 0).abs() < 1e-12);
    }

    #[test]
    fn mismatch_produces_signed_correction_high_side() {
        // coarse flux 2.0, fine average 1.5, fine on high side:
        // ΔU = dt/dx (2.0 − 1.5) > 0 for the outside cell
        let mut reg = FluxRegister::new(2, 1);
        let outside = ivec3(3, 0, 0);
        reg.record_coarse(outside, 0, true, &[2.0]);
        let w = reg.fine_weight();
        for dy in 0..2 {
            for dz in 0..2 {
                for _ in 0..2 {
                    reg.record_fine(ivec3(8, dy, dz), 0, true, &[1.5], w);
                }
            }
        }
        let d = reg.correction(outside, 0);
        assert!((d - 0.5).abs() < 1e-12, "correction {d}");
        // applying adds dt/dx * 0.5
        let mut f = Field3::constant(Region::cube(8), 1, 10.0);
        reg.apply(std::slice::from_mut(&mut f), 0.2);
        assert!((f.get(outside) - 10.1).abs() < 1e-12);
        // register cleared after apply
        assert_eq!(reg.touched_faces(), 0);
    }

    #[test]
    fn mismatch_low_side_flips_sign() {
        // fine region on the LOW side of the outside cell: shared face is
        // the outside cell's low face (+dt/dx F): ΔU = dt/dx (⟨F_f⟩ − F_c)
        let mut reg = FluxRegister::new(2, 1);
        let outside = ivec3(4, 0, 0);
        reg.record_coarse(outside, 0, false, &[2.0]);
        let w = reg.fine_weight();
        for dy in 0..2 {
            for dz in 0..2 {
                for _ in 0..2 {
                    // fine cells just inside the fine region: x = 7 (coarse 3)
                    reg.record_fine(ivec3(7, dy, dz), 0, false, &[1.5], w);
                }
            }
        }
        let d = reg.correction(outside, 0);
        assert!((d + 0.5).abs() < 1e-12, "correction {d}");
    }

    #[test]
    fn composite_mass_conserved_after_reflux() {
        // 1-D style budget across one interface: coarse cell C loses
        // dt/dx·F_c through the face while the fine side gains the fine
        // fluxes. After refluxing C, the composite total change is exactly
        // (fine influx − fine influx) = 0 mismatch.
        let dt_over_dx = 0.25;
        let f_coarse = 2.0;
        let fine_fluxes = [1.2, 1.8, 1.5, 1.5, 2.1, 0.9, 1.4, 1.6]; // 4 faces x 2 substeps
        let fine_avg: f64 = fine_fluxes.iter().sum::<f64>() / 8.0;

        // coarse side: C was updated with −dt/dx·F_c; the physically
        // consistent update is −dt/dx·⟨F_f⟩
        let mut reg = FluxRegister::new(2, 1);
        let outside = ivec3(3, 1, 1);
        reg.record_coarse(outside, 0, true, &[f_coarse]);
        let w = reg.fine_weight();
        let mut i = 0;
        for dy in 0..2 {
            for dz in 0..2 {
                for _ in 0..2 {
                    reg.record_fine(
                        ivec3(8, 2 + dy, 2 + dz),
                        0,
                        true,
                        &[fine_fluxes[i]],
                        w,
                    );
                    i += 1;
                }
            }
        }
        let mut u = Field3::zeros(Region::cube(8), 1);
        u.set(outside, 5.0 - dt_over_dx * f_coarse); // raw coarse update
        reg.apply(std::slice::from_mut(&mut u), dt_over_dx);
        let expect = 5.0 - dt_over_dx * fine_avg;
        assert!(
            (u.get(outside) - expect).abs() < 1e-12,
            "{} vs {}",
            u.get(outside),
            expect
        );
    }

    #[test]
    fn apply_skips_cells_outside_interior() {
        let mut reg = FluxRegister::new(2, 1);
        reg.record_coarse(ivec3(100, 0, 0), 0, true, &[3.0]);
        let mut f = Field3::zeros(Region::cube(4), 1);
        reg.apply(std::slice::from_mut(&mut f), 1.0); // must not panic
        assert_eq!(f.interior_sum(), 0.0);
    }

    #[test]
    fn multiple_fields_tracked_independently() {
        let mut reg = FluxRegister::new(2, 3);
        let c = ivec3(0, 0, 0);
        reg.record_coarse(c, 1, true, &[1.0, 2.0, 3.0]);
        assert_eq!(reg.correction(c, 0), 1.0);
        assert_eq!(reg.correction(c, 1), 2.0);
        assert_eq!(reg.correction(c, 2), 3.0);
    }
}
