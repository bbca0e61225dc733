//! The live binaries' flag surface: a flag their usage line does not
//! name (including the removed `badabing_recv --session` and
//! `badabing_send --no-control`), or a value it does not take (the
//! removed `--io gso`), exits 2 with the usage line before anything
//! binds a socket.

use std::process::Command;

/// Run `bin` with `args`; its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn receiver_rejects_the_removed_session_flag() {
    for flag in ["--session", "--estimate-interval-ms"] {
        let (code, stderr) = run(
            env!("CARGO_BIN_EXE_badabing_recv"),
            &["--bind", "127.0.0.1:0", "--secs", "1", flag, "1"],
        );
        assert_eq!(code, Some(2), "{stderr}");
        let unknown = format!("unknown flag {flag}");
        assert!(stderr.contains(&unknown), "{stderr}");
        assert!(stderr.contains("usage: badabing_recv"), "{stderr}");
    }
}

#[test]
fn sender_rejects_the_removed_no_control_flag() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_badabing_send"),
        &["--target", "127.0.0.1:9", "--secs", "1", "--no-control"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --no-control"), "{stderr}");
    assert!(stderr.contains("usage: badabing_send"), "{stderr}");
}

/// The offload tier is the batched mode now, so `--io gso` is a usage
/// error on both tools.
#[test]
fn both_tools_reject_the_removed_gso_io_mode() {
    for (bin, target) in [
        (env!("CARGO_BIN_EXE_badabing_recv"), "--bind"),
        (env!("CARGO_BIN_EXE_badabing_send"), "--target"),
    ] {
        let (code, stderr) = run(bin, &[target, "127.0.0.1:9", "--secs", "1", "--io", "gso"]);
        assert_eq!(code, Some(2), "{stderr}");
        assert!(stderr.contains("--io: cannot parse value"), "{stderr}");
    }
}
