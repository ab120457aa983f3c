//! Moving the measuring thread between the CPUs the process may use.
//!
//! Other tenants contend for one core at a time: pinned runs taken
//! alternately on each of two CPUs differed by up to 1.5x, and which CPU
//! was the quiet one changed from minute to minute, while the scheduler
//! leaves an otherwise idle process on one CPU for a whole run. Measured
//! blocks therefore rotate over the allowed CPUs, and the quiet-block
//! selection keeps the blocks that ran where nobody else was busy.

/// glibc's `cpu_set_t`: a 1024-bit mask.
type CpuSet = [u64; 16];
const SET_BITS: usize = 64 * 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on; empty where the platform does
/// not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    #[cfg(target_os = "linux")]
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and its
    // exact size is passed, so the kernel writes within it; pid 0 names
    // the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0;
    #[cfg(not(target_os = "linux"))]
    let ok = false;
    if !ok {
        return Vec::new();
    }
    (0..SET_BITS)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; false if that is not possible
/// (the thread then stays where it was).
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < SET_BITS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    #[cfg(target_os = "linux")]
    // SAFETY: `mask` is a live `cpu_set_t`-sized buffer and its exact size
    // is passed, so the kernel reads within it; pid 0 names the calling
    // thread.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) } == 0;
    #[cfg(not(target_os = "linux"))]
    let ok = false;
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_each_allowed_cpu_and_back() {
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            return;
        }
        for &cpu in &cpus {
            assert!(pin(&[cpu]), "pin to {cpu}");
            assert_eq!(allowed_cpus(), vec![cpu]);
        }
        assert!(pin(&cpus));
        assert_eq!(allowed_cpus(), cpus);
        assert!(!pin(&[]));
    }
}
