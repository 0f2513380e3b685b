//! Synthetic microbenchmarks used by the ablation experiments.
//!
//! These are not paper-suite workloads — they isolate one architectural
//! mechanism each. They live here (rather than inside the experiment
//! modules that plot them) so a sweep-fabric worker process can rebuild
//! them from a wire-transported spec.

use crate::workload::{Phase, Scale, Workload, WorkloadClass};
use bvl_isa::asm::Assembler;
use bvl_isa::reg::{VReg, XReg};
use bvl_isa::vcfg::Sew;
use bvl_mem::SimMemory;
use std::sync::Arc;

/// The gather kernel's element count at `scale`: the length of its table
/// and of its index vector.
pub fn gather_len(scale: Scale) -> u64 {
    scale.n.max(1024)
}

/// Builds a gather kernel: `out[i] = table[idx[i]]` with indices that are
/// `locality`-way clustered (locality 4 = groups of 4 consecutive table
/// slots — exactly what the VMIU can coalesce into one line request).
/// Used by the VMIU index-coalescing ablation (paper section III-E).
///
/// # Errors
///
/// Fails, naming `locality`, unless `1 <= locality < gather_len(scale)`:
/// each run of clustered indices holds at least one, and starts inside
/// the table.
pub fn build_gather(scale: Scale, locality: u64) -> Result<Workload, String> {
    let n = gather_len(scale);
    if !(1..n).contains(&locality) {
        return Err(format!(
            "locality = {locality} is outside 1..={}: the gather table has {n} entries \
             at this scale",
            n - 1
        ));
    }
    let table: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    // Byte-offset indices: clustered runs of `locality` consecutive
    // elements starting at deterministic pseudo-random positions.
    let mut idx = Vec::with_capacity(n as usize);
    let mut seed = scale.seed | 1;
    while idx.len() < n as usize {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let base = (seed >> 33) % (n - locality);
        for k in 0..locality {
            idx.push(((base + k) * 4) as u32);
        }
    }
    idx.truncate(n as usize);

    let mut mem = SimMemory::default();
    let table_b = mem.alloc_u32(&table);
    let idx_b = mem.alloc_u32(&idx);
    let out_b = mem.alloc(n * 4, 64);

    let expect: Vec<u32> = idx.iter().map(|&off| table[(off / 4) as usize]).collect();

    let (start, end, vl) = (XReg::new(10), XReg::new(11), XReg::new(14));
    let (t0, t1) = (XReg::new(15), XReg::new(16));
    let (b0, b1, b2) = (XReg::new(23), XReg::new(24), XReg::new(25));
    let mut a = Assembler::new();
    a.label("vector");
    a.li(start, 0);
    a.li(end, n as i64);
    a.li(b0, idx_b as i64);
    a.li(b1, table_b as i64);
    a.li(b2, out_b as i64);
    a.sub(t1, end, start);
    a.label("strip");
    a.vsetvli(vl, t1, Sew::E32);
    a.vle(VReg::new(1), b0); // byte offsets
    a.vluxei(VReg::new(2), b1, VReg::new(1)); // gather
    a.vse(VReg::new(2), b2);
    a.slli(t0, vl, 2);
    a.add(b0, b0, t0);
    a.add(b2, b2, t0);
    a.sub(t1, t1, vl);
    a.bne(t1, XReg::ZERO, "strip");
    a.vmfence();
    a.halt();

    let program = Arc::new(a.assemble().expect("gather assembles"));
    let entry = program.label("vector").expect("label");
    Ok(Workload {
        name: "gather",
        class: WorkloadClass::DataParallelKernel,
        serial_entry: entry, // unused: this is a vector-only microbench
        vector_entry: Some(entry),
        program,
        mem,
        phases: vec![Phase::new(Vec::new())],
        check: Box::new(move |m| {
            let got = m.read_u32_array(out_b, expect.len());
            if got == expect {
                Ok(())
            } else {
                Err("gather mismatch".into())
            }
        }),
    })
}
