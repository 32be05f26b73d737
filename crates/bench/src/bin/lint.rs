//! Repo-local source lint for the concurrency and allocation disciplines
//! that `nc-check` verifies dynamically.
//!
//! Source rules, each tied to an invariant the model checker, the buffer
//! pool, or the batched-I/O seam owns:
//!
//! * **thread-spawn** — raw `std::thread::spawn` outside `crates/pool`
//!   (and `crates/check`, which implements the shim). Product threading
//!   must go through `nc_pool::Pool` or `nc_check::thread`, or every
//!   schedule the model checker explores is missing those threads.
//! * **vec-capacity** — bare `Vec::with_capacity` in the net/coding hot
//!   paths (`crates/net/src`, `crates/core/src`, `crates/fft/src`), and
//!   `.to_vec()` / `Vec::new()` in the four files every data datagram
//!   passes through (`crates/net/src/{wire,session,receiver,shard}.rs`,
//!   up to their trailing `#[cfg(test)]` module). Per-frame and per-shard
//!   buffers must come from `BytesPool`/`BlockArena` so the recycling
//!   edges added for the transport keep steady-state traffic
//!   allocation-free.
//! * **relaxed-invariant** — `Ordering::Relaxed` on an atomic named in a
//!   checked invariant (`pending`, `outstanding`, `retained`, `cursor`,
//!   `frames_sent`, `peer_received`). The nc-check models verify these
//!   protocols under SC exploration; a Relaxed hole in the real code is
//!   exactly the kind of divergence the models cannot see.
//! * **raw-udp-io** — `.send_to(` / `.recv_from(` outside the transport's
//!   I/O seam (`crates/net/src/channel.rs` and `crates/net/src/sysio.rs`).
//!   Datagram I/O must route through `BatchSocket`/`UdpChannel` so the
//!   `net.syscalls` accounting the benchmark divides by stays exact,
//!   and so the batched Linux path and the portable fallback cannot
//!   silently diverge at a call site.
//! * **safety-comment** — an `unsafe {` block with no `// SAFETY:`
//!   justification on the block: on the same line or in the contiguous
//!   comment block directly above it. The GF kernel modules
//!   (`crates/gf256/src/simd*.rs`), the FFT butterflies, the batched
//!   syscall seam, and the pool executor all discharge unsafety against
//!   specific bounds/availability arguments; a bare block is a missing
//!   argument, not a style nit. (`unsafe fn` *declarations* are exempt —
//!   they state a contract rather than discharge one.)
//!
//! And one rule over `.github/workflows/*.yml`:
//!
//! * **ci-missing-bin** — a workflow line that runs `-p nc-bench --bin X`
//!   with no `crates/bench/src/bin/X.rs`. A lane that names a binary the
//!   tree does not hold fails before it checks anything, so the checks it
//!   was written for silently stop running.
//!
//! A finding is waived by a comment on the same line or the line above:
//!
//! ```text
//! // lint: allow(<rule>) — <reason>
//! ```
//!
//! The reason is mandatory by convention (reviewed, not parsed). Exits
//! non-zero on any unwaived finding; CI runs `cargo run -p nc-bench --bin
//! lint` after the test jobs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint rule: a name (used in waivers), a needle, and a scope filter.
struct Rule {
    name: &'static str,
    explain: &'static str,
    applies: fn(&str) -> bool,
    matches: fn(&str) -> bool,
    /// Whether the rule stops at the file's trailing `#[cfg(test)]` module.
    product_code_only: bool,
}

/// The files every data datagram passes through, where any allocation is
/// per datagram unless shown otherwise.
const DATAGRAM_PATH_FILES: [&str; 4] = [
    "crates/net/src/wire.rs",
    "crates/net/src/session.rs",
    "crates/net/src/receiver.rs",
    "crates/net/src/shard.rs",
];

/// Atomic field names that appear in nc-check model invariants; `Relaxed`
/// on any of them weakens a protocol the checker verifies under SC.
const INVARIANT_ATOMICS: [&str; 6] =
    ["pending", "outstanding", "retained", "cursor", "frames_sent", "peer_received"];

const RULES: [Rule; 5] = [
    Rule {
        name: "thread-spawn",
        explain: "raw std::thread::spawn outside crates/pool — use nc_pool::Pool or \
                  nc_check::thread so the model checker sees the thread",
        applies: |path| !path.starts_with("crates/pool/") && !path.starts_with("crates/check/"),
        matches: |code| code.contains("std::thread::spawn"),
        product_code_only: false,
    },
    Rule {
        name: "vec-capacity",
        explain: "bare Vec::with_capacity in a net/coding hot path — take the buffer from \
                  BytesPool/BlockArena so transport recycling keeps it allocation-free",
        applies: |path| {
            path.starts_with("crates/net/src/")
                || path.starts_with("crates/core/src/")
                || path.starts_with("crates/fft/src/")
        },
        matches: |code| code.contains("Vec::with_capacity"),
        product_code_only: false,
    },
    Rule {
        name: "vec-capacity",
        explain: ".to_vec() / Vec::new() on the datagram path — a per-datagram heap allocation \
                  unless shown otherwise; borrow, or take the buffer from BytesPool",
        applies: |path| DATAGRAM_PATH_FILES.contains(&path),
        matches: |code| code.contains(".to_vec()") || code.contains("Vec::new()"),
        product_code_only: true,
    },
    Rule {
        name: "relaxed-invariant",
        explain: "Ordering::Relaxed on an atomic named in a checked invariant — use \
                  Acquire/Release/AcqRel (free on x86) or waive with the safety argument",
        applies: |_| true,
        matches: |code| {
            code.contains("Ordering::Relaxed")
                && INVARIANT_ATOMICS.iter().any(|name| {
                    // `<name>.load(..)`, `<name>.fetch_add(..)`, ...: the
                    // atomic is the receiver of the relaxed operation.
                    code.match_indices(name).any(|(i, _)| {
                        code[i + name.len()..].starts_with('.')
                            && !code[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    })
                })
        },
        product_code_only: false,
    },
    Rule {
        name: "raw-udp-io",
        explain: "raw UDP send_to/recv_from outside the channel/sysio seam — route datagrams \
                  through BatchSocket/UdpChannel so syscall accounting and the batched/portable \
                  split stay correct",
        applies: |path| path != "crates/net/src/channel.rs" && path != "crates/net/src/sysio.rs",
        matches: |code| code.contains(".send_to(") || code.contains(".recv_from("),
        product_code_only: false,
    },
];

/// The code part of a source line: everything before a `//` comment. Not a
/// real tokenizer — `//` inside a string literal will truncate early — but
/// every pattern the rules look for is code-shaped, so false negatives
/// from that are not a concern in this codebase.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn is_waiver_for(line: &str, rule: &str) -> bool {
    line.contains("lint: allow(") && line.contains(&format!("allow({rule})"))
}

/// `// SAFETY:` audit: every `unsafe {` block needs its justification on
/// the same line or in the contiguous `//` comment block directly above.
/// Returns whether the block at `idx` carries one.
fn has_safety_comment(lines: &[&str], idx: usize) -> bool {
    if lines[idx].contains("SAFETY") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let prev = lines[i].trim_start();
        if !prev.starts_with("//") {
            return false;
        }
        if prev.contains("SAFETY") {
            return true;
        }
    }
    false
}

fn audit_safety(rel: &str, lines: &[&str], findings: &mut Vec<String>) {
    for (idx, line) in lines.iter().enumerate() {
        // Blocks only: `unsafe fn` / `unsafe impl` declare a contract
        // (documented as `# Safety` rustdoc); `unsafe {` *discharges* one
        // and must say why it holds here.
        if !code_part(line).contains("unsafe {") {
            continue;
        }
        let waived = is_waiver_for(line, "safety-comment")
            || idx.checked_sub(1).is_some_and(|p| is_waiver_for(lines[p], "safety-comment"));
        if !waived && !has_safety_comment(lines, idx) {
            findings.push(format!(
                "{rel}:{}: [safety-comment] `unsafe {{` without a `// SAFETY:` justification \
                 on the block (same line or contiguous comment above)\n    {}",
                idx + 1,
                line.trim()
            ));
        }
    }
}

fn lint_file(root: &Path, rel: &str, findings: &mut Vec<String>) {
    let text = match std::fs::read_to_string(root.join(rel)) {
        Ok(t) => t,
        Err(e) => {
            findings.push(format!("{rel}: unreadable: {e}"));
            return;
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    let product_lines = lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod "))
        .unwrap_or(lines.len());
    for rule in &RULES {
        if !(rule.applies)(rel) {
            continue;
        }
        let scope = if rule.product_code_only { product_lines } else { lines.len() };
        for (idx, line) in lines[..scope].iter().enumerate() {
            let code = code_part(line);
            if !(rule.matches)(code) {
                continue;
            }
            let waived = is_waiver_for(line, rule.name)
                || idx.checked_sub(1).is_some_and(|p| is_waiver_for(lines[p], rule.name));
            if !waived {
                findings.push(format!(
                    "{rel}:{}: [{}] {}\n    {}",
                    idx + 1,
                    rule.name,
                    rule.explain,
                    line.trim()
                ));
            }
        }
    }
    audit_safety(rel, &lines, findings);
}

/// The `X` of every `--bin X` on a line that also names `-p nc-bench`.
fn bench_bins_named(line: &str) -> Vec<&str> {
    if !line.contains("-p nc-bench") {
        return Vec::new();
    }
    let mut words = line.split_whitespace();
    let mut bins = Vec::new();
    while let Some(word) = words.next() {
        if word == "--bin" {
            bins.extend(words.next());
        }
    }
    bins
}

/// Every workflow step that runs an `nc-bench` binary must name one whose
/// source is in the tree.
fn audit_workflows(root: &Path, findings: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(root.join(".github/workflows")) else { return };
    let mut workflows: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    workflows.sort();
    for path in workflows {
        let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                findings.push(format!("{rel}: unreadable: {e}"));
                continue;
            }
        };
        for (idx, line) in text.lines().enumerate() {
            for bin in bench_bins_named(line) {
                if !root.join(format!("crates/bench/src/bin/{bin}.rs")).exists() {
                    findings.push(format!(
                        "{rel}:{}: [ci-missing-bin] the workflow runs `--bin {bin}` but \
                         crates/bench/src/bin/{bin}.rs does not exist\n    {}",
                        idx + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
}

/// Every tracked `.rs` file under `crates/` (vendor and target stay out of
/// scope: we lint this repo's code, not its vendored dependencies).
fn source_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

/// Locates the workspace root: the lint runs from anywhere inside it.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("not inside the workspace (no Cargo.toml + crates/ found upward)");
        }
    }
}

/// Runs every rule over the tree; returns the number of source files
/// looked at and the unwaived findings.
fn lint_tree(root: &Path) -> (usize, Vec<String>) {
    let files = source_files(root);
    let mut findings = Vec::new();
    for rel in &files {
        // The lint's own source spells out the forbidden patterns.
        if rel.ends_with("bin/lint.rs") {
            continue;
        }
        lint_file(root, rel, &mut findings);
    }
    audit_workflows(root, &mut findings);
    (files.len(), findings)
}

fn main() -> ExitCode {
    let (files, findings) = lint_tree(&workspace_root());
    if findings.is_empty() {
        println!("lint: {files} files clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {} finding(s) in {files} files:\n", findings.len());
        for f in &findings {
            eprintln!("{f}\n");
        }
        eprintln!("waive a justified site with: // lint: allow(<rule>) — <reason>");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_lines_do_not_match() {
        let m = RULES[0].matches;
        assert!(!m(code_part("//! let receiver = std::thread::spawn(move || {")));
        assert!(m(code_part("let h = std::thread::spawn(f); // driver")));
    }

    #[test]
    fn relaxed_rule_needs_an_invariant_receiver() {
        let m = RULES[3].matches;
        assert!(m("self.pending.load(Ordering::Relaxed)"));
        assert!(m("state.outstanding.fetch_add(1, Ordering::Relaxed);"));
        assert!(!m("total.fetch_add(1, Ordering::Relaxed);"));
        // Suffix of another identifier is not the invariant atomic.
        assert!(!m("suspending.load(Ordering::Relaxed)"));
        assert!(!m("self.pending.load(Ordering::Acquire)"));
    }

    #[test]
    fn raw_udp_io_rule_matches_call_sites_only() {
        let rule = &RULES[4];
        assert_eq!(rule.name, "raw-udp-io");
        assert!((rule.matches)("socket.send_to(&bytes, peer)?;"));
        assert!((rule.matches)("let (len, from) = sock.recv_from(&mut buf)?;"));
        // Function *definitions/imports* with similar names don't trip it.
        assert!(!(rule.matches)("pub(crate) fn send_to_batch(socket: &UdpSocket) {}"));
        assert!(!(rule.matches)("use crate::sysio::send_to_batch;"));
        // The seam itself is exempt; everything else applies.
        assert!(!(rule.applies)("crates/net/src/channel.rs"));
        assert!(!(rule.applies)("crates/net/src/sysio.rs"));
        assert!((rule.applies)("crates/net/src/server.rs"));
        assert!((rule.applies)("crates/bench/src/bin/server_bench.rs"));
    }

    #[test]
    fn datagram_path_rule_flags_copies_outside_the_test_module_only() {
        let rule = &RULES[2];
        assert_eq!(rule.name, "vec-capacity");
        assert!((rule.matches)("3 => Payload::Data(payload.to_vec()),"));
        assert!((rule.matches)("let mut payload = Vec::new();"));
        assert!(!(rule.matches)("queue: Mutex::new(VecDeque::new()),"));
        assert!(!(rule.matches)("let v = pool.take_vec_copy(bytes);"));
        assert!((rule.applies)("crates/net/src/wire.rs"));
        assert!((rule.applies)("crates/net/src/shard.rs"));
        assert!(!(rule.applies)("crates/net/src/channel.rs"));
        assert!(!(rule.applies)("crates/core/src/stream.rs"));

        // Through `lint_file`: the product line is a finding, the same
        // line inside the trailing test module is not, a waiver clears it.
        let dir = std::env::temp_dir().join(format!("nc-lint-{}", std::process::id()));
        let file = dir.join("crates/net/src/wire.rs");
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        let test_module = "#[cfg(test)]\nmod tests {\n    fn g() { let _ = b\"x\".to_vec(); }\n}\n";
        let findings_for = |product: &str| {
            std::fs::write(&file, format!("{product}{test_module}")).unwrap();
            let mut findings = Vec::new();
            lint_file(&dir, "crates/net/src/wire.rs", &mut findings);
            findings
        };
        let flagged = findings_for("fn f(p: &[u8]) -> Vec<u8> { p.to_vec() }\n");
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].starts_with("crates/net/src/wire.rs:1: [vec-capacity]"));
        let waived = findings_for(
            "// lint: allow(vec-capacity) — owned copy by contract\nfn f(p: &[u8]) -> Vec<u8> { p.to_vec() }\n",
        );
        assert!(waived.is_empty(), "{waived:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn safety_audit_accepts_adjacent_and_block_comments_only() {
        let with_block =
            ["// SAFETY: bounds checked by the", "// caller's length contract.", "unsafe {"];
        assert!(has_safety_comment(&with_block, 2));
        let same_line = ["unsafe { do_it() } // SAFETY: inline argument"];
        assert!(has_safety_comment(&same_line, 0));
        // A gap of code between the comment and the block breaks the tie.
        let with_gap = ["// SAFETY: stale argument", "let len = dst.len();", "unsafe {"];
        assert!(!has_safety_comment(&with_gap, 2));
        let bare = ["let x = 1;", "unsafe {"];
        assert!(!has_safety_comment(&bare, 1));
    }

    #[test]
    fn workflow_rule_reads_the_bin_of_nc_bench_commands_only() {
        let run = "run: cargo run -p nc-bench --release --bin gf_next -- --smoke out.json";
        assert_eq!(bench_bins_named(run), ["gf_next"]);
        assert_eq!(
            bench_bins_named("cargo build -p nc-bench --bin fig7 --bin all"),
            ["fig7", "all"]
        );
        assert!(bench_bins_named("cargo run -p nc-check --bin explore").is_empty());
        assert!(bench_bins_named("cargo build --release -p nc-gf256 -p nc-bench").is_empty());
    }

    #[test]
    fn waivers_match_exact_rule() {
        assert!(is_waiver_for("// lint: allow(thread-spawn) — test driver", "thread-spawn"));
        assert!(!is_waiver_for("// lint: allow(thread-spawn) — test driver", "vec-capacity"));
        assert!(!is_waiver_for("plain comment", "thread-spawn"));
    }

    #[test]
    fn the_repo_is_clean() {
        // The lint's own acceptance test: running it over the live tree
        // must produce zero unwaived findings.
        let (_, findings) = lint_tree(&workspace_root());
        assert!(findings.is_empty(), "unwaived lint findings:\n{}", findings.join("\n"));
    }
}
