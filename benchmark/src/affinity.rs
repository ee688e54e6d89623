//! Which CPUs the calling thread may run on. The serve workloads give the
//! load generator one CPU and the server the rest: on a small host the
//! scheduler otherwise leaves the pacer behind the replica on one CPU for
//! whole time slices, and a late generator cannot resolve a latency.

/// A `cpu_set_t`: 1024 CPUs, one bit each.
pub type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the size passed, only
        // read by the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// Split the CPUs this thread may use into one for the load generator
/// (the lowest) and the rest for the server; `None` when there is only
/// one, or the host does not say.
pub fn split() -> Option<(CpuSet, CpuSet)> {
    split_set(sys::get()?)
}

fn split_set(all: CpuSet) -> Option<(CpuSet, CpuSet)> {
    let first = (0..1024).find(|&c| all[c / 64] >> (c % 64) & 1 == 1)?;
    let mut generator: CpuSet = [0; 16];
    generator[first / 64] = 1 << (first % 64);
    let mut server = all;
    server[first / 64] &= !generator[first / 64];
    server
        .iter()
        .any(|&w| w != 0)
        .then_some((generator, server))
}

/// Restrict the calling thread, and the threads it spawns from now on, to
/// `set`. Returns whether the host allowed it.
pub fn pin(set: &CpuSet) -> bool {
    sys::set(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lowest_cpu_generates_and_the_rest_serve() {
        let mut all: CpuSet = [0; 16];
        all[0] = 0b1100; // CPUs 2 and 3, as inside a cpuset
        all[1] = 0b1; // and CPU 64
        let (generator, server) = split_set(all).unwrap();
        assert_eq!(generator[0], 0b0100);
        assert_eq!((server[0], server[1]), (0b1000, 0b1));
        let mut one: CpuSet = [0; 16];
        one[0] = 0b10;
        assert!(split_set(one).is_none());
        assert!(split_set([0; 16]).is_none());
    }
}
