//! Every modeled figure, byte for byte against its checked-in output.
//!
//! The modeled figures come from the calibrated simulator and the CPU
//! model, so they are deterministic: a changed byte in `golden/<name>.txt`
//! is a changed model, never noise. Regenerate a file on purpose with the
//! command a failing test prints. The host-measured figures
//! ([`HOST_MEASURED`]) have no golden file.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use nc_bench::report::{FIGURES, HOST_MEASURED};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// The driver command that prints figure `name`.
fn command_for(name: &str) -> String {
    match name.strip_suffix("_sanitize") {
        Some(base) => format!("{base} --sanitize"),
        None => name.to_string(),
    }
}

fn check(name: &str) {
    let (_, run) = FIGURES.iter().find(|(n, _)| *n == name).expect("a figure of that name");
    let path = golden_dir().join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&path).expect("golden file");
    let actual = run();
    if actual != expected {
        let line = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
        let detail = match line {
            Some(i) => format!(
                "first difference on line {}:\n  golden: {}\n  now:    {}",
                i + 1,
                expected.lines().nth(i).unwrap_or_default(),
                actual.lines().nth(i).unwrap_or_default()
            ),
            None => "the outputs differ in length".to_string(),
        };
        panic!(
            "`{name}` no longer matches {}; {detail}\nIf the model change is intended, \
             regenerate it with\n  cargo run -p nc-bench --release -- {} > crates/bench/golden/{name}.txt",
            path.display(),
            command_for(name)
        );
    }
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*

        /// The figures this file has a test for.
        const CHECKED: &[&str] = &[$(stringify!($name)),*];
    };
}

golden!(
    fig4a,
    fig4b,
    fig6,
    fig7,
    fig7_sanitize,
    fig8,
    fig9,
    fig10,
    misc,
    streaming_capacity,
    ablation,
    ablation_sanitize,
    calibrate,
);

#[test]
fn figure_names_are_unique() {
    let names: BTreeSet<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    assert_eq!(names.len(), FIGURES.len(), "a name appears twice in FIGURES");
    for name in HOST_MEASURED {
        assert!(names.contains(name), "host-measured `{name}` is not a figure");
    }
}

#[test]
fn every_modeled_figure_has_one_golden_file_and_one_test() {
    let modeled: BTreeSet<&str> = FIGURES
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| !HOST_MEASURED.contains(name))
        .collect();
    let files: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("golden directory")
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    let expected_files: BTreeSet<String> =
        modeled.iter().map(|name| format!("{name}.txt")).collect();
    assert_eq!(files, expected_files, "golden files and modeled figures differ");
    assert_eq!(CHECKED.iter().copied().collect::<BTreeSet<_>>(), modeled);
}

#[test]
fn unknown_figure_exits_2_and_lists_the_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_nc-bench")).arg("fig5").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, _) in FIGURES {
        assert!(stderr.contains(name), "`{name}` missing from the usage message:\n{stderr}");
    }
    assert!(out.stdout.is_empty());
}
