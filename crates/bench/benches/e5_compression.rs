//! E5 (§IV.D): compression in the dedicated cores' spare time.
//!
//! Paper anchor: "a 600 % compression ratio without any overhead on the
//! simulation". Real codecs on real CM1-proxy output, on this machine.

use damaris_bench::{e5_real_compression, print_table};

fn main() {
    for (label, steps) in [
        ("initial fields (mostly base state)", 0),
        ("evolved fields (30 steps)", 30),
    ] {
        let rows: Vec<Vec<String>> = e5_real_compression(steps)
            .into_iter()
            .map(|r| {
                vec![
                    r.pipeline,
                    format!("{:.1}:1 ({:.0} %)", r.ratio, r.ratio * 100.0),
                    format!("{:.0} MB/s", r.throughput / 1e6),
                ]
            })
            .collect();
        print_table(
            &format!("E5 — real CM1-proxy data, {label} (paper: 600 %)"),
            &["pipeline", "ratio", "encode throughput"],
            &rows,
        );
    }
}
