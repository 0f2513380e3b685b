//! The shared functional memory image and workload-data allocator.
//!
//! All simulated cores (and the golden executors inside them) read and
//! write one [`SimMemory`]. The timing hierarchy in [`crate::hier`] only
//! models *when* accesses complete; the bytes themselves live here.

use bvl_isa::mem::Memory;
use bvl_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Default backing size (64 MiB) — enough for every workload at the
/// default scales.
pub const DEFAULT_SIZE: usize = 64 << 20;

/// A flat byte memory with a bump allocator for laying out workload data.
#[derive(Clone, Debug)]
pub struct SimMemory {
    bytes: Vec<u8>,
    /// Next free address for [`SimMemory::alloc`]. Starts above a reserved
    /// low region so null-ish addresses fault loudly in tests.
    brk: u64,
    /// One past the highest byte ever written — the live prefix that
    /// [`SimMemory::fork`] must copy (everything above is still zero).
    high_water: u64,
}

impl SimMemory {
    /// Creates a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        SimMemory {
            bytes: vec![0; size],
            brk: 0x1000,
            high_water: 0,
        }
    }

    /// A logical copy at a fraction of `clone()`'s cost: the fresh backing
    /// comes zeroed from the allocator (lazy zero pages), and only the
    /// prefix that has ever been written — tracked by a high-water mark —
    /// is actually copied. With a 64 MiB default backing and workloads
    /// touching a few hundred KiB, this turns the per-`simulate` image
    /// copy from tens of milliseconds into microseconds.
    pub fn fork(&self) -> SimMemory {
        let live = (self.high_water.max(self.brk) as usize).min(self.bytes.len());
        let mut bytes = vec![0; self.bytes.len()];
        bytes[..live].copy_from_slice(&self.bytes[..live]);
        SimMemory {
            bytes,
            brk: self.brk,
            high_water: self.high_water,
        }
    }

    /// Total backed bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the memory backs zero bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Allocates `size` bytes aligned to `align` and returns the base
    /// address. Purely a bump allocator; there is no free.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the region is exhausted.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        let end = base + size;
        assert!(
            (end as usize) <= self.bytes.len(),
            "simulated memory exhausted: need {end:#x}, have {:#x}",
            self.bytes.len()
        );
        self.brk = end;
        base
    }

    /// Allocates and fills a `u32` array, returning its base address.
    pub fn alloc_u32(&mut self, data: &[u32]) -> u64 {
        let base = self.alloc(data.len() as u64 * 4, 64);
        for (i, v) in data.iter().enumerate() {
            self.write_uint(base + i as u64 * 4, 4, u64::from(*v));
        }
        base
    }

    /// Allocates and fills an `f32` array, returning its base address.
    pub fn alloc_f32(&mut self, data: &[f32]) -> u64 {
        let base = self.alloc(data.len() as u64 * 4, 64);
        for (i, v) in data.iter().enumerate() {
            self.write_f32(base + i as u64 * 4, *v);
        }
        base
    }

    /// Reads back a `u32` array.
    pub fn read_u32_array(&self, base: u64, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| self.read_uint(base + i as u64 * 4, 4) as u32)
            .collect()
    }

    /// Reads back an `f32` array.
    pub fn read_f32_array(&self, base: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| self.read_f32(base + i as u64 * 4))
            .collect()
    }

    /// One past the highest byte ever written — everything at or above
    /// this address still reads as zero.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// The live prefix: every byte from 0 up to the high-water mark.
    pub fn live_bytes(&self) -> &[u8] {
        &self.bytes[..(self.high_water as usize).min(self.bytes.len())]
    }
}

/// Only the live prefix (up to the high-water mark) is encoded: every
/// byte at or above it is zero by the write-path invariant, so a restore
/// zero-fills the rest. `brk` rides along so the bump allocator resumes
/// where it left off.
impl Snap for SimMemory {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.bytes.len());
        w.u64(self.brk);
        w.u64(self.high_water);
        w.bytes(self.live_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let total = r.usize()?;
        if total > (4 << 30) {
            // Bound allocation on corrupt input: no simulated system backs
            // more than a few GiB.
            return Err(SnapError::Corrupt {
                what: format!("memory image claims {total} backing bytes"),
            });
        }
        let brk = r.u64()?;
        let high_water = r.u64()?;
        let live = r.bytes()?;
        if live.len() != (high_water as usize).min(total) || high_water as usize > total {
            return Err(SnapError::Corrupt {
                what: format!(
                    "memory image live prefix {} disagrees with high-water {high_water} / total {total}",
                    live.len()
                ),
            });
        }
        let mut bytes = vec![0u8; total];
        bytes[..live.len()].copy_from_slice(live);
        Ok(SimMemory {
            bytes,
            brk,
            high_water,
        })
    }
}

/// A comparable snapshot of a [`SimMemory`]'s live contents.
///
/// Captures only the written prefix (up to the high-water mark); bytes
/// above it are zero by construction in every image of the same total
/// size, so comparing live prefixes compares the whole address space.
/// Two runs that performed the same set of writes produce equal images —
/// the memory half of the differential-test oracle contract.
#[derive(Clone, PartialEq, Eq)]
pub struct MemImage {
    bytes: Vec<u8>,
    total_len: usize,
}

impl MemImage {
    /// Snapshots the live prefix of `mem`.
    pub fn capture(mem: &SimMemory) -> MemImage {
        MemImage {
            bytes: mem.live_bytes().to_vec(),
            total_len: mem.len(),
        }
    }

    /// The captured bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The first address whose byte differs between the two images,
    /// treating everything beyond a shorter live prefix as zero.
    pub fn first_difference(&self, other: &MemImage) -> Option<u64> {
        let n = self.bytes.len().max(other.bytes.len());
        (0..n).find_map(|i| {
            let a = self.bytes.get(i).copied().unwrap_or(0);
            let b = other.bytes.get(i).copied().unwrap_or(0);
            (a != b).then_some(i as u64)
        })
    }
}

impl fmt::Debug for MemImage {
    /// Compact rendering (an image can be megabytes): sizes plus an FNV-1a
    /// digest of the live bytes, enough to see *that* two images differ.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &self.bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        write!(
            f,
            "MemImage {{ live: {} of {} bytes, fnv1a: {h:016x} }}",
            self.bytes.len(),
            self.total_len
        )
    }
}

impl Default for SimMemory {
    fn default() -> Self {
        SimMemory::new(DEFAULT_SIZE)
    }
}

impl Memory for SimMemory {
    fn read(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.bytes[a..a + buf.len()]);
    }

    fn write(&mut self, addr: u64, buf: &[u8]) {
        let a = addr as usize;
        let end = a + buf.len();
        self.bytes[a..end].copy_from_slice(buf);
        self.high_water = self.high_water.max(end as u64);
    }
}

/// A shared handle to one [`SimMemory`], cloneable across the cores of a
/// simulated system (single-threaded simulation; `Rc<RefCell<_>>`).
#[derive(Clone, Debug, Default)]
pub struct SharedMem(Rc<RefCell<SimMemory>>);

impl SharedMem {
    /// Wraps a memory image in a shared handle.
    pub fn new(mem: SimMemory) -> Self {
        SharedMem(Rc::new(RefCell::new(mem)))
    }

    /// Runs `f` with a shared borrow of the memory.
    pub fn with<R>(&self, f: impl FnOnce(&SimMemory) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Runs `f` with an exclusive borrow of the memory.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut SimMemory) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

impl Memory for SharedMem {
    fn read(&self, addr: u64, buf: &mut [u8]) {
        self.0.borrow().read(addr, buf);
    }

    fn write(&mut self, addr: u64, buf: &[u8]) {
        self.0.borrow_mut().write(addr, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut m = SimMemory::new(1 << 20);
        let a = m.alloc(10, 64);
        assert_eq!(a % 64, 0);
        let b = m.alloc(10, 64);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
    }

    #[test]
    fn array_round_trips() {
        let mut m = SimMemory::new(1 << 20);
        let base = m.alloc_u32(&[1, 2, 3]);
        assert_eq!(m.read_u32_array(base, 3), vec![1, 2, 3]);
        let fb = m.alloc_f32(&[1.5, -2.5]);
        assert_eq!(m.read_f32_array(fb, 2), vec![1.5, -2.5]);
    }

    #[test]
    #[should_panic(expected = "simulated memory exhausted")]
    fn alloc_exhaustion_panics() {
        let mut m = SimMemory::new(1 << 16);
        let _ = m.alloc(1 << 20, 8);
    }

    #[test]
    fn fork_matches_clone_and_stays_independent() {
        let mut m = SimMemory::new(1 << 20);
        let base = m.alloc_u32(&[7, 8, 9]);
        // A direct write above brk must still be carried by fork.
        m.write_uint(0x8_0000, 8, 0xFEED);
        let mut f = m.fork();
        assert_eq!(f.read_u32_array(base, 3), vec![7, 8, 9]);
        assert_eq!(f.read_uint(0x8_0000, 8), 0xFEED);
        assert_eq!(f.len(), m.len());
        // Forks don't alias.
        f.write_uint(base, 4, 42);
        assert_eq!(m.read_uint(base, 4), 7);
        // The fork allocates where the original left off.
        let next = f.alloc(16, 64);
        assert!(next >= base + 12);
    }

    #[test]
    fn fork_copies_exactly_the_high_water_prefix() {
        let mut m = SimMemory::new(1 << 20);
        assert_eq!(m.high_water(), 0);
        m.write_uint(0x4000, 4, 0xABCD);
        // One past the highest written byte, not a page or line round-up.
        assert_eq!(m.high_water(), 0x4004);
        let f = m.fork();
        assert_eq!(f.high_water(), m.high_water());
        assert_eq!(f.read_uint(0x4000, 4), 0xABCD);
        // The live prefix view and the captured image agree.
        assert_eq!(f.live_bytes(), m.live_bytes());
        assert_eq!(MemImage::capture(&f), MemImage::capture(&m));
    }

    #[test]
    fn fork_lazy_pages_read_as_zero() {
        let mut m = SimMemory::new(1 << 20);
        m.write_uint(0x2000, 8, u64::MAX);
        let f = m.fork();
        // Far above the high-water mark: never copied, still zero.
        assert_eq!(f.read_uint(0x8_0000, 8), 0);
        assert_eq!(f.read_uint((1 << 20) - 8, 8), 0);
        // Just above the copied prefix too.
        assert_eq!(f.read_uint(m.high_water(), 8), 0);
    }

    #[test]
    fn fork_writes_do_not_leak_either_direction() {
        let mut m = SimMemory::new(1 << 20);
        m.write_uint(0x3000, 4, 111);
        let mut f = m.fork();
        // Child write, inside and above the copied prefix.
        f.write_uint(0x3000, 4, 222);
        f.write_uint(0x7_0000, 4, 333);
        assert_eq!(m.read_uint(0x3000, 4), 111);
        assert_eq!(m.read_uint(0x7_0000, 4), 0);
        assert_eq!(m.high_water(), 0x3004);
        // Parent write after the fork stays invisible to the child.
        m.write_uint(0x5000, 4, 444);
        assert_eq!(f.read_uint(0x5000, 4), 0);
    }

    #[test]
    fn mem_image_reports_first_difference() {
        let mut a = SimMemory::new(1 << 16);
        a.write_uint(0x100, 4, 0x01020304);
        let mut b = a.fork();
        let ia = MemImage::capture(&a);
        assert_eq!(ia.first_difference(&MemImage::capture(&b)), None);
        b.write_uint(0x102, 1, 0xFF);
        let ib = MemImage::capture(&b);
        assert_eq!(ia.first_difference(&ib), Some(0x102));
        // A longer live prefix only differs where it is non-zero.
        b.write_uint(0x200, 2, 0);
        b.write_uint(0x210, 1, 7);
        assert_eq!(ib.first_difference(&MemImage::capture(&b)), Some(0x210));
    }

    #[test]
    fn shared_mem_aliases() {
        let h1 = SharedMem::new(SimMemory::new(1 << 16));
        let mut h2 = h1.clone();
        h2.write_uint(0x2000, 4, 77);
        assert_eq!(h1.read_uint(0x2000, 4), 77);
    }
}
