//! Recombines the `BENCH_<name>.shard<i>of<n>.json` files a sharded sweep
//! wrote into the byte-stable monolithic `BENCH_<name>.json`.
//!
//! ```text
//! merge_shards NAME --shards N [--dir DIR]    (DIR defaults to target/bench)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: merge_shards NAME --shards N [--dir DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut name = None;
    let mut shards = None;
    let mut dir = PathBuf::from(mediaworm_bench::BENCH_DIR);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => shards = Some(n),
                _ => return usage("--shards needs a count of at least 1"),
            },
            "--dir" => match it.next() {
                Some(d) => dir = PathBuf::from(d),
                None => return usage("--dir needs a path"),
            },
            flag if flag.starts_with("--") => return usage(&format!("unknown flag {flag}")),
            _ if name.is_none() => name = Some(arg),
            _ => return usage(&format!("unexpected argument {arg}")),
        }
    }
    let Some(name) = name else {
        return usage("missing experiment NAME");
    };
    let Some(shards) = shards else {
        return usage("missing --shards N");
    };
    match mediaworm_bench::merge_shards(&name, &dir, shards) {
        Ok(path) => {
            println!("merged {shards} shards into {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "error: merging BENCH_{name} shards in {}: {e}",
                dir.display()
            );
            ExitCode::FAILURE
        }
    }
}
