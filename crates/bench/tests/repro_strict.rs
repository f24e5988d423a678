//! `repro --strict` reads the run's counter store: a clean Table III run
//! exits 0, and a rerun over a manifest whose last record was torn
//! mid-write exits nonzero while reporting the same results, with a
//! provenance note that is a function of the counts alone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn a_strict_rerun_over_a_torn_manifest_fails_with_identical_results() {
    let dir: PathBuf = std::env::temp_dir().join(format!("vpsim-strict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let resume = dir.to_str().expect("utf-8 temp dir");
    let args = [
        "--table", "3", "--trials", "2", "--resume", resume, "--strict",
    ];
    let clean = repro(&args);
    assert!(
        clean.status.success(),
        "a clean run is strict-clean: {clean:?}"
    );

    let torn = repro_over_torn_manifest(&dir, &args);
    assert!(!torn.status.success(), "a torn line must fail --strict");
    let stderr = String::from_utf8_lossy(&torn.stderr);
    assert!(stderr.contains("1 torn line(s)"), "{stderr}");
    // The job under the torn line re-ran, so the table is byte for byte
    // the clean run's. The report adds only its provenance note.
    let stdout = String::from_utf8(torn.stdout).unwrap();
    let (notes, report): (Vec<&str>, Vec<&str>) = stdout
        .split_inclusive('\n')
        .partition(|l| l.starts_with("  [supervision] "));
    assert_eq!(report.concat().as_bytes(), clean.stdout.as_slice());
    assert!(
        notes.len() == 1 && notes[0].contains("1 torn line(s) recovered"),
        "{notes:?}"
    );
    // The note counts what went wrong, not how long it took: tearing
    // the repaired manifest again prints the same report byte for byte.
    let again = repro_over_torn_manifest(&dir, &args);
    assert!(!again.status.success(), "a torn line must fail --strict");
    assert_eq!(String::from_utf8(again.stdout).unwrap(), stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cut the Table III manifest's last record in half, as a kill
/// mid-write would, and rerun `repro` over it.
fn repro_over_torn_manifest(dir: &Path, args: &[&str]) -> Output {
    let manifest = dir.join("table3.jsonl");
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    let last = text.trim_end().rfind('\n').expect("header and records") + 1;
    let cut = last + (text.trim_end().len() - last) / 2;
    std::fs::write(&manifest, &text[..cut]).unwrap();
    repro(args)
}
