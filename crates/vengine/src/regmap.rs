//! Mapping vector-register elements onto little-core scalar registers.
//!
//! Paper section III-C and Figure 2: vector register `vN` (N ≥ 1) stores
//! its elements in scalar *physical* register `N` of each little core —
//! the integer file for the first element group (chime 0) and the
//! floating-point file for the second (chime 1). Consecutive elements are
//! packed two-per-64-bit-register when the element width allows, and
//! element groups are striped across cores:
//!
//! ```text
//! e32, 4 cores, packed, 2 chimes (VLEN = 512 b, VLMAX = 16):
//!   elem  0, 1 -> core0.x[N]      elem  2, 3 -> core1.x[N]   ...
//!   elem  8, 9 -> core0.f[N]      elem 10,11 -> core1.f[N]   ...
//! ```
//!
//! `v0` (the mask register) maps to the extra `x0*`/`f0*` registers added
//! per core so predicated instructions can read the mask without an extra
//! register-file read port.

use bvl_isa::vcfg::Sew;
use bvl_snap::snap_struct;

/// Which per-core physical register file a chime uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegFile {
    /// Integer registers (chime 0).
    Int,
    /// Floating-point registers (chime 1).
    Fp,
    /// The extra mask register (`x0*`/`f0*`) holding `v0`.
    Mask,
}

/// Where one vector element lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ElemLoc {
    /// Little-core index within the cluster.
    pub core: u8,
    /// Element group.
    pub chime: u8,
    /// Physical register file.
    pub file: RegFile,
    /// Register index within the file (equals the architectural vector
    /// register number).
    pub reg: u8,
    /// Packed sub-slot within the 64-bit register (0 when unpacked).
    pub subslot: u8,
}

/// The engine's register-mapping geometry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegMap {
    /// Number of little cores (lanes). On `1b-4VL` in vector mode it is
    /// also the cluster's L1 bank count: the system builds one bank per
    /// lane.
    pub cores: u8,
    /// Element groups (1 or 2; chime 1 uses the FP register file).
    pub chimes: u8,
    /// Pack multiple sub-word elements per 64-bit register.
    pub packed: bool,
}

// Part of `EngineParams`' wire encoding (sweep-fabric protocol).
snap_struct!(RegMap {
    cores,
    chimes,
    packed,
});

impl RegMap {
    /// The paper's `1b-4VL` geometry: 4 cores, 2 chimes, packed.
    pub fn paper_default() -> Self {
        RegMap {
            cores: 4,
            chimes: 2,
            packed: true,
        }
    }

    /// Elements stored per 64-bit scalar register at `sew`.
    pub fn elems_per_reg(&self, sew: Sew) -> u32 {
        if self.packed {
            64 / sew.bits()
        } else {
            1
        }
    }

    /// Elements per chime across the whole cluster.
    pub fn elems_per_chime(&self, sew: Sew) -> u32 {
        u32::from(self.cores) * self.elems_per_reg(sew)
    }

    /// Hardware VLMAX at `sew`.
    pub fn vlmax(&self, sew: Sew) -> u32 {
        u32::from(self.chimes) * self.elems_per_chime(sew)
    }

    /// Hardware vector length in bits.
    ///
    /// With packing this is `chimes * cores * 64` independent of `sew`;
    /// without packing each register holds one element, so the bit length
    /// is quoted at the paper's 32-bit workload element width.
    pub fn vlen_bits(&self) -> u32 {
        let per_reg_bits = if self.packed { 64 } else { 32 };
        u32::from(self.chimes) * u32::from(self.cores) * per_reg_bits
    }

    /// Locates element `e` of a vector register `v` at `sew`.
    ///
    /// ```
    /// use bvl_vengine::regmap::{RegFile, RegMap};
    /// use bvl_isa::vcfg::Sew;
    ///
    /// // Figure 2's layout: elements 0 and 1 of v1 pack into core 0's
    /// // integer register 1; element 8 starts the FP-file chime.
    /// let map = RegMap::paper_default();
    /// let loc = map.locate(1, 1, Sew::E32);
    /// assert_eq!((loc.core, loc.file, loc.subslot), (0, RegFile::Int, 1));
    /// assert_eq!(map.locate(1, 8, Sew::E32).file, RegFile::Fp);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `e >= vlmax(sew)`.
    pub fn locate(&self, v: u8, e: u32, sew: Sew) -> ElemLoc {
        assert!(e < self.vlmax(sew), "element {e} out of range");
        let per_reg = self.elems_per_reg(sew);
        let per_chime = self.elems_per_chime(sew);
        let chime = (e / per_chime) as u8;
        let within = e % per_chime;
        let core = (within / per_reg) as u8;
        let subslot = (within % per_reg) as u8;
        let file = if v == 0 {
            RegFile::Mask
        } else if chime == 0 {
            RegFile::Int
        } else {
            RegFile::Fp
        };
        ElemLoc {
            core,
            chime,
            file,
            reg: v,
            subslot,
        }
    }

    /// Number of elements of a `vl`-element operation that land on `core`
    /// within `chime`.
    pub fn elems_on(&self, core: u8, chime: u8, vl: u32, sew: Sew) -> u32 {
        let per_reg = self.elems_per_reg(sew);
        let per_chime = self.elems_per_chime(sew);
        let chime_base = u32::from(chime) * per_chime;
        if vl <= chime_base {
            return 0;
        }
        let in_chime = (vl - chime_base).min(per_chime);
        let core_base = u32::from(core) * per_reg;
        if in_chime <= core_base {
            0
        } else {
            (in_chime - core_base).min(per_reg)
        }
    }

    /// Number of chimes a `vl`-element operation actually touches.
    pub fn chimes_for(&self, vl: u32, sew: Sew) -> u8 {
        if vl == 0 {
            return 0;
        }
        let per_chime = self.elems_per_chime(sew);
        (vl.div_ceil(per_chime)).min(u32::from(self.chimes)) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_geometry_is_512_bits() {
        let m = RegMap::paper_default();
        assert_eq!(m.vlen_bits(), 512);
        assert_eq!(m.vlmax(Sew::E32), 16);
        assert_eq!(m.vlmax(Sew::E64), 8);
    }

    #[test]
    fn figure2_layout() {
        // Figure 2: 32-bit elements, four cores, two chimes, packed.
        let m = RegMap::paper_default();
        // v1[0], v1[1] packed into core 0's integer register 1.
        let l0 = m.locate(1, 0, Sew::E32);
        let l1 = m.locate(1, 1, Sew::E32);
        assert_eq!(
            (l0.core, l0.file, l0.reg, l0.subslot),
            (0, RegFile::Int, 1, 0)
        );
        assert_eq!(
            (l1.core, l1.file, l1.reg, l1.subslot),
            (0, RegFile::Int, 1, 1)
        );
        // v1[2] starts core 1.
        let l2 = m.locate(1, 2, Sew::E32);
        assert_eq!((l2.core, l2.chime), (1, 0));
        // Second chime (elements 8..16) uses the FP file.
        let l8 = m.locate(1, 8, Sew::E32);
        assert_eq!((l8.core, l8.chime, l8.file), (0, 1, RegFile::Fp));
        // v0 maps to the extra mask registers.
        assert_eq!(m.locate(0, 3, Sew::E32).file, RegFile::Mask);
    }

    #[test]
    fn locate_is_injective_over_vlmax() {
        for &(chimes, packed) in &[(1u8, false), (1, true), (2, true), (2, false)] {
            let m = RegMap {
                cores: 4,
                chimes,
                packed,
            };
            let mut seen = HashSet::new();
            for e in 0..m.vlmax(Sew::E32) {
                let loc = m.locate(5, e, Sew::E32);
                assert!(
                    seen.insert((loc.core, loc.chime, loc.subslot)),
                    "collision at element {e} for {m:?}"
                );
            }
        }
    }

    #[test]
    fn elems_on_accounts_for_every_element() {
        let m = RegMap::paper_default();
        for vl in 0..=m.vlmax(Sew::E32) {
            let total: u32 = (0..m.cores)
                .flat_map(|c| (0..m.chimes).map(move |k| m.elems_on(c, k, vl, Sew::E32)))
                .sum();
            assert_eq!(total, vl, "vl = {vl}");
        }
    }

    #[test]
    fn partial_vl_fills_cores_in_order() {
        let m = RegMap::paper_default();
        // vl = 5 at e32: elements 0-1 on core0, 2-3 on core1, 4 on core2.
        assert_eq!(m.elems_on(0, 0, 5, Sew::E32), 2);
        assert_eq!(m.elems_on(1, 0, 5, Sew::E32), 2);
        assert_eq!(m.elems_on(2, 0, 5, Sew::E32), 1);
        assert_eq!(m.elems_on(3, 0, 5, Sew::E32), 0);
        assert_eq!(m.elems_on(0, 1, 5, Sew::E32), 0);
    }

    #[test]
    fn chimes_for_counts() {
        let m = RegMap::paper_default();
        assert_eq!(m.chimes_for(0, Sew::E32), 0);
        assert_eq!(m.chimes_for(8, Sew::E32), 1);
        assert_eq!(m.chimes_for(9, Sew::E32), 2);
        assert_eq!(m.chimes_for(16, Sew::E32), 2);
    }

    #[test]
    fn unpacked_single_chime_is_128_bits() {
        // The paper's `1c` ablation configuration.
        let m = RegMap {
            cores: 4,
            chimes: 1,
            packed: false,
        };
        assert_eq!(m.vlen_bits(), 128);
        assert_eq!(m.vlmax(Sew::E32), 4);
    }
}
