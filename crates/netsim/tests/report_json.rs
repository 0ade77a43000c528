//! `SimReport` JSON round-trip: the scenario result cache persists full
//! simulator reports to disk, so serialize → parse → serialize must be
//! the identity (bit-exact floats included) for reports with every
//! optional feature exercised: traces, drops, wire loss, finite flows.

use bbrdom_netsim::cc::FixedWindow;
use bbrdom_netsim::json;
use bbrdom_netsim::{
    FaultSchedule, FlowConfig, Rate, SimConfig, SimDuration, SimReport, Simulator, MSS,
};

fn busy_report() -> SimReport {
    busy_report_for(3.0)
}

fn busy_report_for(secs: f64) -> SimReport {
    let rate = Rate::from_mbps(10.0);
    let rtt = SimDuration::from_millis(20);
    let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 0.5);
    let cfg = SimConfig::new(rate, buf, SimDuration::from_secs_f64(secs))
        .with_trace(SimDuration::from_millis(250))
        .with_faults(FaultSchedule::none().with_loss(0.01).with_seed(7));
    let mut sim = Simulator::new(cfg);
    // Oversized windows force drops; a finite flow exercises completion.
    let window = rate.bdp_bytes(rtt) * 4;
    sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(window)), rtt));
    sim.add_flow(FlowConfig::new(
        Box::new(FixedWindow::new(window.max(MSS))),
        rtt,
    ));
    sim.run()
}

/// A clean single finite flow, so `completion_time_secs` is `Some`.
fn finite_flow_report() -> SimReport {
    let rate = Rate::from_mbps(10.0);
    let rtt = SimDuration::from_millis(20);
    let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
    let mut sim = Simulator::new(SimConfig::new(rate, buf, SimDuration::from_secs_f64(3.0)));
    sim.add_flow(
        FlowConfig::new(Box::new(FixedWindow::new(rate.bdp_bytes(rtt))), rtt)
            .with_byte_limit(100_000),
    );
    sim.run()
}

#[test]
fn sim_report_roundtrips_bit_exactly() {
    let report = busy_report();
    // The run must exercise the interesting fields, or the round-trip
    // proves less than it claims.
    assert!(report.queue.dropped_packets > 0, "want drops in the report");
    assert!(!report.trace.is_empty(), "want trace samples");

    let text = report.to_json_value().to_json();
    let parsed = SimReport::from_json_value(&json::parse(&text).unwrap()).unwrap();

    // Serialize → parse → serialize is the identity on the JSON form,
    // which covers every field in both directions.
    assert_eq!(parsed.to_json_value().to_json(), text);

    // Spot-check bit-exactness of floats and structure of nested data.
    assert_eq!(
        parsed.flows[0].throughput_bytes_per_sec.to_bits(),
        report.flows[0].throughput_bytes_per_sec.to_bits()
    );
    assert_eq!(parsed.queue.drops, report.queue.drops);
    assert_eq!(parsed.events_processed, report.events_processed);
    assert_eq!(parsed.trace.len(), report.trace.len());
    assert_eq!(
        parsed.trace.samples[1].cwnd_bytes,
        report.trace.samples[1].cwnd_bytes
    );
}

#[test]
fn finite_flow_completion_time_roundtrips() {
    let report = finite_flow_report();
    assert!(
        report.flows[0].completion_time_secs.is_some(),
        "want a completed finite flow"
    );
    let text = report.to_json_value().to_json();
    let parsed = SimReport::from_json_value(&json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed.to_json_value().to_json(), text);
    assert_eq!(
        parsed.flows[0].completion_time_secs.unwrap().to_bits(),
        report.flows[0].completion_time_secs.unwrap().to_bits()
    );
}

/// A multi-hop run, so the optional `hops` array is populated.
fn multi_hop_report() -> SimReport {
    let rate = Rate::from_mbps(10.0);
    let rtt = SimDuration::from_millis(20);
    let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
    let mut topo = bbrdom_netsim::Topology::parking_lot(2, rate, SimDuration::from_millis(2), buf);
    topo.flow_routes = vec![0, 1];
    let cfg = SimConfig::new(rate, buf, SimDuration::from_secs_f64(3.0)).with_topology(topo);
    let mut sim = Simulator::try_new(cfg).unwrap();
    for _ in 0..2 {
        sim.add_flow(FlowConfig::new(
            Box::new(FixedWindow::new(2 * rate.bdp_bytes(rtt))),
            rtt,
        ));
    }
    sim.run()
}

#[test]
fn per_hop_reports_roundtrip_bit_exactly() {
    let report = multi_hop_report();
    assert_eq!(report.hops.len(), 2, "want per-hop reports");
    let text = report.to_json_value().to_json();
    assert!(text.contains("\"hops\""), "multi-hop reports carry the key");
    let parsed = SimReport::from_json_value(&json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed.to_json_value().to_json(), text);
    assert_eq!(
        parsed.hops[1].avg_queuing_delay_secs.to_bits(),
        report.hops[1].avg_queuing_delay_secs.to_bits()
    );
    // Single-bottleneck reports must NOT carry the key: pre-topology
    // cache entries and goldens stay byte-identical.
    let legacy = busy_report();
    assert!(legacy.hops.is_empty());
    assert!(!legacy.to_json_value().to_json().contains("\"hops\""));
}

#[test]
fn sim_report_parse_rejects_malformed_input() {
    let report = busy_report();
    let good = report.to_json_value();

    // Whole-value corruption.
    assert!(SimReport::from_json_value(&json::Value::Null).is_err());

    // Member-level corruption: drop a required field.
    let mut missing = good.clone();
    if let json::Value::Object(map) = &mut missing {
        map.remove("queue");
    }
    assert!(SimReport::from_json_value(&missing).is_err());
}

/// A cache entry torn at any byte (a crash mid-write, a full disk) is a
/// parse error, never a panic: every proper prefix of a real report's
/// JSON either fails to parse or fails to decode as a `SimReport`. (The
/// run is short: queue samples make a 3 s report ~60 kB, and the
/// quadratic scan over that takes tens of seconds for no new syntax.)
#[test]
fn every_prefix_of_a_report_is_an_error_not_a_panic() {
    let text = busy_report_for(0.5).to_json_value().to_json();
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let decoded = json::parse(&text[..end])
            .ok()
            .and_then(|v| SimReport::from_json_value(&v).ok());
        assert!(decoded.is_none(), "prefix of {end} bytes decoded");
    }
}
