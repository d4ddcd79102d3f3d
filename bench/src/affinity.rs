//! Pin the benchmark — and through inheritance every thread it starts
//! and the child daemon — to one CPU.
//!
//! The sandbox is two vCPUs of a shared host. Spread over both, the
//! generator, the daemon's reactor and its worker wake each other across
//! CPUs, and in a VM such a wake-up is an inter-processor interrupt into
//! a halted vCPU: 20–50 µs that depend on what the host is doing, on a
//! request whose own work is a few µs. Measured on this box, the same warm
//! search took 77 µs (spread 20 % between quartiles over ten runs) on two
//! CPUs and 12.6 µs (spread 8 %) on one, where every hand-off is a plain
//! context switch. A closed loop has one runnable thread at a time
//! anyway, so one CPU takes nothing away from it.

/// `cpu_set_t` is 1024 bits on Linux.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread to the highest-numbered CPU it is allowed
/// (device interrupts land on CPU 0 here) and return that CPU. Threads
/// and processes created afterwards inherit the mask, so call this first
/// thing in `main`. `None`: the mask could not be read or set, and the
/// run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is `size` writable bytes; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, size, set.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = highest_bit(&set)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes; pid 0 is the caller.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn highest_bit(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_highest_allowed_cpu() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(highest_bit(&set), None);
        set[0] = 0b11;
        assert_eq!(highest_bit(&set), Some(1));
        set[1] = 1 << 5;
        assert_eq!(highest_bit(&set), Some(69));
    }
}
