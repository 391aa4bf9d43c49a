//! C2 fixture: a metric catalog that disagrees with the doc's schema
//! table in three ways — an undocumented family, a label mismatch, and
//! (via the doc fixture) a documented family with no entry.

pub const CATALOG: &[MetricSpec] = &[
    counter("haste_service_requests_total", "opcode", "Requests by opcode."),
    histogram("haste_service_request_duration_us", "opcode", "Request latency."),
    counter("haste_engine_mystery_total", "", "Not in the doc."),
];
