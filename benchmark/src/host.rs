//! What the run can say about the machine and build it ran on, and the
//! process counters the metrics are computed from.

use std::process::Command;

/// Seed used while the benchmark was written and tuned.
pub const DEVELOPMENT_SEED: u64 = 20_090_622;
/// Seed kept aside: a claim made on the development seed must also hold
/// on this one.
pub const HELD_OUT_SEED: u64 = 7_741_128;

/// Kernel receive buffer every benchmark socket asks for.
pub const RCVBUF_REQUEST_BYTES: usize = 4 << 20;

/// Which of the two recorded seeds `seed` is, if either.
pub fn seed_role(seed: u64) -> &'static str {
    match seed {
        DEVELOPMENT_SEED => "development",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    }
}

/// A sub-seed for one purpose (`tag`) of one run: FNV-1a over the tag,
/// mixed with the run seed, so payload bytes, erasure patterns, fault
/// seeds and coefficient draws are independent streams of one `--seed`.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed.rotate_left(29)
}

/// Process CPU time (user + system, every thread, exited ones included)
/// in seconds, from `/proc/self/stat`. 0.0 where that file is missing.
pub fn process_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU time of the calling thread alone, from `/proc/thread-self/stat`.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

fn stat_cpu_seconds(path: &str) -> f64 {
    // Fields 14 and 15 (utime, stime) in clock ticks; the comm field may
    // hold spaces, so count from the closing parenthesis. Linux fixes
    // USER_HZ at 100 on every architecture this builds for, and the
    // workspace has no libc to ask sysconf.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string(path) else { return 0.0 };
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// The receive-buffer size the kernel grants a UDP socket that asks for
/// [`RCVBUF_REQUEST_BYTES`], read back with `getsockopt`. `nc-net` sets
/// the option on its sockets but has no getter, so this probes a socket
/// of its own the same way. 0 off Linux.
pub fn rcvbuf_granted_bytes() -> u64 {
    rcvbuf::granted(RCVBUF_REQUEST_BYTES)
}

#[cfg(target_os = "linux")]
mod rcvbuf {
    use std::os::fd::AsRawFd;

    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;

    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
    }

    pub fn granted(request: usize) -> u64 {
        let Ok(socket) = std::net::UdpSocket::bind("127.0.0.1:0") else { return 0 };
        let fd = socket.as_raw_fd();
        let want = request.min(i32::MAX as usize) as i32;
        let mut got: i32 = 0;
        let mut len = std::mem::size_of::<i32>() as u32;
        // SAFETY: `fd` is a live socket owned by `socket` for the whole
        // block; `want`, `got` and `len` are live locals of exactly the
        // sizes passed, and the kernel writes at most `len` bytes to `got`.
        let ok = unsafe {
            setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &want, len) == 0
                && getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &mut got, &mut len) == 0
        };
        if ok {
            got.max(0) as u64
        } else {
            0
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod rcvbuf {
    pub fn granted(_request: usize) -> u64 {
        0
    }
}

/// The provenance block printed with every output.
#[derive(Clone, Debug)]
pub struct Provenance {
    pub cpu_model: String,
    pub nproc: usize,
    pub gf256_kernel: &'static str,
    pub fft_kernel: &'static str,
    pub batched_io: bool,
    pub rcvbuf_granted_bytes: u64,
    pub rmem_max: String,
    pub git_rev: String,
    pub rustc: String,
    pub seed: u64,
    pub seed_role: &'static str,
    pub traced: bool,
    pub smoke: bool,
    pub seconds: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn collect(seed: u64, traced: bool, smoke: bool, seconds: f64) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|c| {
                c.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let manifest_dir = env!("CARGO_MANIFEST_DIR");
        Provenance {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            gf256_kernel: nc_gf256::simd::active_kernel().name(),
            fft_kernel: nc_fft::simd::active_kernel().name(),
            batched_io: nc_net::BatchSocket::batched(),
            rcvbuf_granted_bytes: rcvbuf_granted_bytes(),
            rmem_max: std::fs::read_to_string("/proc/sys/net/core/rmem_max")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            // The driver's checkout is not a git repository; say so.
            git_rev: command_line("git", &["-C", manifest_dir, "rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            seed,
            seed_role: seed_role(seed),
            traced,
            smoke,
            seconds,
        }
    }

    /// Human-readable block, one `# key: value` line each.
    pub fn to_text(&self) -> String {
        format!(
            "# cpu: {} (nproc {})\n# gf256.kernel: {}  fft.kernel: {}  batched io: {}\n\
             # SO_RCVBUF granted: {} B for a {} B request (net.core.rmem_max {})\n\
             # git rev: {}  rustc: {}\n# seed: {} ({})  traced: {}  smoke: {}  seconds: {}\n",
            self.cpu_model,
            self.nproc,
            self.gf256_kernel,
            self.fft_kernel,
            self.batched_io,
            self.rcvbuf_granted_bytes,
            RCVBUF_REQUEST_BYTES,
            self.rmem_max,
            self.git_rev,
            self.rustc,
            self.seed,
            self.seed_role,
            self.traced,
            self.smoke,
            self.seconds,
        )
    }

    pub fn to_json(&self) -> String {
        use crate::json::escape;
        format!(
            "{{\"cpu_model\": \"{}\", \"nproc\": {}, \"gf256_kernel\": \"{}\", \
             \"fft_kernel\": \"{}\", \"batched_io\": {}, \"rcvbuf_granted_bytes\": {}, \
             \"rmem_max\": \"{}\", \"git_rev\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \
             \"seed_role\": \"{}\", \"traced\": {}, \"smoke\": {}, \"seconds\": {}}}",
            escape(&self.cpu_model),
            self.nproc,
            self.gf256_kernel,
            self.fft_kernel,
            self.batched_io,
            self.rcvbuf_granted_bytes,
            escape(&self.rmem_max),
            escape(&self.git_rev),
            escape(&self.rustc),
            self.seed,
            self.seed_role,
            self.traced,
            self.smoke,
            self.seconds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_tag_and_by_seed() {
        assert_ne!(sub_seed(1, "payload"), sub_seed(1, "faults"));
        assert_ne!(sub_seed(1, "payload"), sub_seed(2, "payload"));
        assert_eq!(sub_seed(9, "x"), sub_seed(9, "x"));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_seconds();
        let started = std::time::Instant::now();
        let mut x = 1u64;
        while started.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_seconds() > before, "60 ms of spinning is at least one tick");
        }
    }
}
