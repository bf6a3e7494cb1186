//! Known-bad hot-path fixture: every violation below is asserted by
//! `tests/analyzer.rs` with its exact rule id and `file:line` span.
//! Line numbers matter — append only at the end.

pub struct Inbox;

fn step_region(xs: &[u32]) -> u64 {
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect(); // line 8: LCL-A01
    let guard = GLOBAL.lock(); // line 9: LCL-A02
    let total = unsafe { raw_sum(&doubled) }; // line 10: LCL-A03
    drop(guard);
    total
}

impl Inbox {
    fn gather(&self) -> String {
        format!("gathered") // line 17: LCL-A01 (alloc macro in hot type)
    }
}

impl<M> StoreRegion<M> for SlotRegion<'_, M> {
    fn commit(&mut self, out: &mut Sink) {
        out.flush(); // line 23: LCL-A04 (I/O in a slot-store method)
    }
}

impl MailLog {
    fn log(&mut self, node: u32) {
        self.overflow.push(node); // line 29: LCL-A01 (allocation in a mail log)
    }
}

fn node_context(ids: &[u64], v: usize) -> u64 {
    ids.to_vec()[v] // line 34: LCL-A01 (allocation in the per-visit context)
}
