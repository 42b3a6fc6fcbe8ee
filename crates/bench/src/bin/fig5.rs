//! Regenerates **Figure 5**: the timing diagram of sequential GC execution
//! — per clock cycle, garbling, then OT and data transfer, then
//! evaluation.
//!
//! Runs the folded MAC core (§3.5) for several clock cycles through the
//! real two-party protocol with the telemetry sink on, and draws the
//! drained spans — the timeline `--trace-out` exports — as a text Gantt
//! chart: per cycle the client's `client.garble` (G), its table, label and
//! OT-extension sends (T), and the server's `server.eval` (E).
//!
//! The paper's figure overlaps garbling of cycle `c+1` with evaluation of
//! cycle `c`. This protocol does not: the client receives cycle `c`'s
//! output colours before it garbles `c+1`, so the chart shows G, T and E
//! within each cycle and no overlap across cycles. The closing
//! `pipelining:` line makes that checkable: with nothing overlapping, the
//! wall time is at least client work plus server work.

use std::sync::Arc;

use deepsecure_core::compile::{folded_mac, CompileOptions, Compiled};
use deepsecure_core::protocol::{run_compiled, InferenceConfig};
use deepsecure_fixed::{Fixed, Format};
use telemetry::SpanEvent;

/// The client spans that make up a cycle's transfer (T) window.
const TRANSFER: [&str; 3] = ["client.tables", "client.input_labels", "client.ot_ext"];

/// A span's end, in microseconds since the telemetry epoch.
fn end(e: &SpanEvent) -> u64 {
    e.start_us + e.dur_us
}

/// Microseconds to milliseconds.
fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

fn bar(start: f64, end: f64, total: f64, width: usize, ch: char) -> String {
    let a = ((start / total) * width as f64) as usize;
    let b = (((end / total) * width as f64) as usize)
        .max(a + 1)
        .min(width);
    let mut s = vec![' '; width];
    for slot in s.iter_mut().take(b).skip(a) {
        *slot = ch;
    }
    s.into_iter().collect()
}

fn main() {
    let cycles = 8;
    let circuit = folded_mac(&CompileOptions::default());
    println!(
        "Figure 5: GC pipeline timeline over {} clock cycles of the folded MAC core",
        cycles
    );
    println!(
        "(core: {} non-XOR gates/cycle, {} registers)",
        circuit.stats().non_xor,
        circuit.registers().len()
    );
    let compiled = Arc::new(Compiled {
        circuit,
        weight_order: Vec::new(),
        format: Format::Q3_12,
    });
    let q = Format::Q3_12;
    let g_bits: Vec<Vec<bool>> = (0..cycles)
        .map(|i| {
            let mut b = Fixed::from_f64(0.25 + i as f64 * 0.1, q).to_bits();
            b.push(i % 4 == 0); // reset every 4 cycles: one neuron per 4 MACs
            b
        })
        .collect();
    let e_bits: Vec<Vec<bool>> = (0..cycles)
        .map(|i| Fixed::from_f64(0.5 - i as f64 * 0.05, q).to_bits())
        .collect();
    let cfg = InferenceConfig::default();
    telemetry::set_enabled(true);
    run_compiled(compiled, g_bits, e_bits, &cfg).expect("protocol run");
    telemetry::set_enabled(false);
    let spans = telemetry::drain();
    let named =
        |name: &str| -> Vec<&SpanEvent> { spans.iter().filter(|e| e.name == name).collect() };
    let base_ot = named("client.base_ot")[0];
    let garbles = named("client.garble");
    let evals = named("server.eval");
    assert_eq!(garbles.len(), cycles, "one client.garble span per cycle");
    assert_eq!(evals.len(), cycles, "one server.eval span per cycle");

    let width = 72;
    println!();
    println!(
        "OT setup (base OTs): {:>7.2} ms — one-time, amortized over all cycles",
        ms(base_ot.dur_us),
    );
    println!();
    println!("steady-state timeline (time axis starts after OT setup):");
    // Rescale the Gantt chart to the steady-state window so the per-cycle
    // phases are visible next to the millisecond-scale OT setup.
    let t0 = end(base_ot);
    let t_end = spans.iter().map(end).max().unwrap_or(t0);
    let steady = (t_end - t0) as f64;
    let rel = |us: u64| (us - t0) as f64;
    let (mut client_work, mut server_work) = (0, 0);
    for (i, (garble, eval)) in garbles.iter().zip(&evals).enumerate() {
        // A cycle's sends are the transfer spans from its garbling on,
        // up to the next cycle's.
        let next = garbles.get(i + 1).map_or(u64::MAX, |g| g.start_us);
        let sends = spans.iter().filter(|e| {
            TRANSFER.contains(&e.name) && (garble.start_us..next).contains(&e.start_us)
        });
        let (tx_start, tx_end) = sends.fold((u64::MAX, 0), |(a, b), e| {
            (a.min(e.start_us), b.max(end(e)))
        });
        client_work += garble.dur_us + (tx_end - tx_start);
        server_work += eval.dur_us;
        println!(
            "cycle {i}: garble {:>6.2} ms  |{}|",
            ms(garble.dur_us),
            bar(rel(garble.start_us), rel(end(garble)), steady, width, 'G')
        );
        println!(
            "         ot+tx  {:>6.2} ms  |{}|",
            ms(tx_end - tx_start),
            bar(rel(tx_start), rel(tx_end), steady, width, 'T')
        );
        println!(
            "         eval   {:>6.2} ms  |{}|",
            ms(eval.dur_us),
            bar(rel(eval.start_us), rel(end(eval)), steady, width, 'E')
        );
    }
    println!();
    println!(
        "total: {:.2} ms (G=garble client, T=OT/transfer, E=evaluate server)",
        ms(t_end - base_ot.start_us)
    );

    // The paper's pipeline would execute in less than the sum of both
    // parties' work; with no cross-cycle overlap the wall time is at least
    // that sum.
    println!(
        "pipelining: client work {:.2} ms + server work {:.2} ms executed in {:.2} ms",
        ms(client_work),
        ms(server_work),
        ms(t_end - t0)
    );
}
