//! Property-based tests for the memory hierarchy: request conservation
//! (every accepted request gets exactly one response) and bank-mapping
//! invariants.

use bvl_mem::cache::{AccessOutcome, Cache, CacheParams};
use bvl_mem::hier::{HierConfig, MemHierarchy};
use bvl_mem::req::{AccessKind, MemReq, PortId};
use proptest::prelude::*;
use std::collections::HashSet;

fn mem_req(id: u64, addr: u64, is_store: bool, port: PortId) -> MemReq {
    MemReq {
        id,
        addr,
        size: 4,
        is_store,
        kind: AccessKind::Data,
        port,
    }
}

proptest! {
    /// A standalone cache with an always-ready next level conserves
    /// requests: every accepted access is answered exactly once, and the
    /// cache never responds to an id it did not accept.
    #[test]
    fn cache_conserves_requests(
        accesses in proptest::collection::vec((0u64..4096, any::<bool>()), 1..200)
    ) {
        let mut cache = Cache::new(CacheParams {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 4,
            ports: 1,
        });
        let next_level_latency = 5u64;
        let mut pending_fills: Vec<(u64, u64)> = Vec::new(); // (ready, line)
        let mut accepted: HashSet<u64> = HashSet::new();
        let mut answered: HashSet<u64> = HashSet::new();

        let mut queue: Vec<(u64, u64, bool)> = accesses
            .iter()
            .enumerate()
            .map(|(i, (a, s))| (i as u64, *a & !3, *s))
            .collect();
        queue.reverse();

        let mut inflight = None;
        for now in 0..20_000u64 {
            cache.tick(now);
            // Service next-level fills.
            pending_fills.retain(|&(ready, line)| {
                if ready <= now {
                    cache.fill(now, line);
                    false
                } else {
                    true
                }
            });
            while let Some(line) = cache.pop_miss() {
                pending_fills.push((now + next_level_latency, line));
            }
            while cache.pop_writeback().is_some() {}
            while let Some(r) = cache.pop_response() {
                prop_assert!(accepted.contains(&r.id), "response for unaccepted id {}", r.id);
                prop_assert!(answered.insert(r.id), "duplicate response id {}", r.id);
            }
            // Issue at most one request per cycle, retrying rejections.
            if inflight.is_none() {
                inflight = queue.pop();
            }
            if let Some((id, addr, st)) = inflight {
                match cache.access(now, mem_req(id, addr, st, PortId::BigData)) {
                    AccessOutcome::Rejected => {}
                    _ => {
                        accepted.insert(id);
                        inflight = None;
                    }
                }
            }
            if queue.is_empty() && inflight.is_none() && answered.len() == accepted.len() && pending_fills.is_empty() {
                break;
            }
        }
        prop_assert_eq!(accepted.len(), accesses.len(), "not all requests accepted");
        prop_assert_eq!(answered.len(), accepted.len(), "responses lost");
    }

    /// The full hierarchy conserves requests across two little cores
    /// issuing a mixed read/write stream with sharing.
    #[test]
    fn hierarchy_conserves_requests(
        accesses in proptest::collection::vec(
            (0u64..2048, any::<bool>(), 0u8..2), 1..100)
    ) {
        let mut h = MemHierarchy::new(HierConfig::with_little(2));
        let mut queue: Vec<(u64, u64, bool, u8)> = accesses
            .iter()
            .enumerate()
            .map(|(i, (a, s, c))| (i as u64, (*a & !3) + 0x1000, *s, *c))
            .collect();
        queue.reverse();
        let mut inflight = None;
        let mut accepted = 0usize;
        let mut answered = 0usize;
        for now in 0..200_000u64 {
            h.tick(now);
            for c in 0..2 {
                while h.pop_response(PortId::LittleData(c)).is_some() {
                    answered += 1;
                }
            }
            if inflight.is_none() {
                inflight = queue.pop();
            }
            if let Some((id, addr, st, c)) = inflight {
                if h.request(mem_req(id, addr, st, PortId::LittleData(c))) {
                    accepted += 1;
                    inflight = None;
                }
            }
            if queue.is_empty() && inflight.is_none() && answered == accepted {
                break;
            }
        }
        prop_assert_eq!(accepted, accesses.len());
        prop_assert_eq!(answered, accepted);
    }

    /// Bank mapping: same line always maps to the same bank; consecutive
    /// lines round-robin across all banks (minimal conflicts for
    /// unit-stride streams, paper section III-E).
    #[test]
    fn bank_mapping_round_robins(base_line in 0u64..100_000, n_little in 1usize..8) {
        let h = MemHierarchy::new(HierConfig::with_little(n_little));
        let line = h.line_bytes();
        let addr = base_line * line;
        // Every byte of a line maps to one bank.
        let b0 = h.bank_of(addr);
        for off in [0u64, 1, line / 2, line - 1] {
            prop_assert_eq!(h.bank_of(addr + off), b0);
        }
        // n consecutive lines cover all n banks.
        let banks: HashSet<u8> = (0..n_little as u64)
            .map(|i| h.bank_of(addr + i * line))
            .collect();
        prop_assert_eq!(banks.len(), n_little);
    }
}
