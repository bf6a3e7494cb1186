//! Known-bad packed-store fixture: every violation below is asserted by
//! `tests/analyzer.rs` with its exact rule id and `file:line` span.
//! Line numbers matter — append only at the end.
impl<M> StoreRegion<M> for PackedRegion<'_, M> {
    fn stage(&mut self, slots: &mut [u64]) -> u64 {
        let mut spill: Vec<u64> = Vec::new(); // line 6: LCL-A01 (allocating constructor)
        spill.push(slots.len() as u64); // line 7: LCL-A01 (allocating call)
        let handle = File::open("halo.spill"); // line 8: LCL-A04 (file handle)
        drop(handle);
        spill[0]
    }
}
fn capture_halos(sink: &mut Sink, slots: &[u64]) {
    sink.write_all(&[0u8]); // line 14: LCL-A04 (I/O call)
    let label = format!("{} slots", slots.len()); // line 15: LCL-A01 (alloc macro)
    drop(label);
}

fn refill_residency(slots: &[u64]) -> u64 {
    // Allowed: residency changes run between passes, so only the
    // per-round fns above are policed.
    let staged = slots.to_vec();
    staged.len() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn capture_halos() {
        // Allowed: hot-path rules skip test code, even under a policed
        // fn name.
        let spilled = vec![1u64];
        assert_eq!(spilled.len(), 1);
    }
}
