//! Observability-layer tests over real TCP: `/metrics` exposition-format
//! lint, request-id round-trips across keep-alive pipelines, the
//! `/debug/slow` ring (eviction order, spans matching the `Server-Timing`
//! header), admission state in `/stats`, and `/healthz` build info.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use mahif::Session;
use mahif_serve::{Json, ServeConfig, Server, ServerHandle};
use mahif_workload::serve_load::{http_get, http_post, HttpClient};

/// The running example of Figure 1 as a registration body.
const REGISTER_BODY: &str = r#"{
  "relations": [
    {"name": "Order",
     "attributes": [
       {"name": "ID", "type": "int"},
       {"name": "Customer", "type": "str"},
       {"name": "Country", "type": "str"},
       {"name": "Price", "type": "int"},
       {"name": "ShippingFee", "type": "int"}
     ],
     "tuples": [
       [11, "Susan", "UK", 20, 5],
       [12, "Alex", "UK", 50, 5],
       [13, "Jack", "US", 60, 3],
       [14, "Mark", "US", 30, 4]
     ]}
  ],
  "history": [
    "UPDATE Order SET ShippingFee = 0 WHERE Price >= 50",
    "UPDATE Order SET ShippingFee = ShippingFee + 5 WHERE Country = 'UK' AND Price <= 100",
    "UPDATE Order SET ShippingFee = ShippingFee - 2 WHERE Price <= 30 AND ShippingFee >= 10"
  ]
}"#;

fn whatif(threshold: i64) -> String {
    format!("REPLACE STATEMENT 1 WITH UPDATE Order SET ShippingFee = 0 WHERE Price >= {threshold}")
}

fn sweep_body() -> String {
    format!(
        r#"{{"scenarios": [
              {{"name": "t55", "whatif": "{}"}},
              {{"name": "t60", "whatif": "{}"}},
              {{"name": "t65", "whatif": "{}"}}
            ]}}"#,
        whatif(55),
        whatif(60),
        whatif(65)
    )
}

fn start_server(config: ServeConfig) -> (ServerHandle, String) {
    let session = Arc::new(Session::new());
    let server = Server::bind(session, config).expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Parses a `Server-Timing` value into `name → milliseconds`.
fn parse_server_timing(value: &str) -> HashMap<String, f64> {
    value
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            let mut pieces = part.trim().split(';');
            let name = pieces.next().expect("metric name").to_string();
            let dur = pieces
                .find_map(|p| p.trim().strip_prefix("dur=").map(str::to_string))
                .and_then(|d| d.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("no dur= in Server-Timing part {part:?}"));
            (name, dur)
        })
        .collect()
}

#[test]
fn metrics_expose_lintable_prometheus_text() {
    let (handle, addr) = start_server(ServeConfig::default());
    // One keep-alive connection: requests on a connection are handled
    // strictly in order, so by the time `/metrics` is answered every
    // earlier request has been recorded (a scrape on a *fresh* connection
    // could race the previous request's post-write bookkeeping).
    let mut client = HttpClient::new(&addr);
    assert_eq!(
        client
            .request("POST", "/histories/retail", Some(REGISTER_BODY), false)
            .unwrap()
            .status,
        201
    );
    let body = sweep_body();
    let reply = client
        .request("POST", "/histories/retail/batch", Some(&body), false)
        .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        client
            .request("GET", "/healthz", None, false)
            .unwrap()
            .status,
        200
    );

    let scrape = client.request("GET", "/metrics", None, false).unwrap();
    assert_eq!(scrape.status, 200);
    assert!(
        scrape
            .header("content-type")
            .unwrap()
            .starts_with("text/plain"),
        "{:?}",
        scrape.header("content-type")
    );

    // Exposition-format lint: every line is a comment or a sample whose
    // `# TYPE` declaration came first, and every sample value parses.
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: HashMap<String, f64> = HashMap::new();
    for line in scrape.body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE name").to_string();
            let kind = parts.next().expect("TYPE kind").to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "{line}"
            );
            assert!(
                types.insert(name, kind).is_none(),
                "TYPE declared twice: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unknown comment: {line}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable sample value: {line}"));
        let name = series.split('{').next().unwrap();
        // A histogram's samples use the family name with a suffix.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        assert!(
            types.contains_key(family),
            "sample before its # TYPE: {line}"
        );
        samples.insert(series.to_string(), value.parse().unwrap());
    }

    // The acceptance surface: request counters by route/status, admission
    // gauges + shed counter, queue/plan/execute/total latency histograms,
    // and the engine counters.
    let get = |series: &str| -> f64 {
        *samples
            .get(series)
            .unwrap_or_else(|| panic!("missing series {series}\n{}", scrape.body))
    };
    assert!(get(r#"mahif_requests_total{route="batch",status="200"}"#) >= 1.0);
    assert!(get(r#"mahif_requests_total{route="register",status="201"}"#) >= 1.0);
    assert!(get(r#"mahif_requests_total{route="healthz",status="200"}"#) >= 1.0);
    assert!(types.contains_key("mahif_admission_in_flight"));
    assert!(types.contains_key("mahif_admission_queued"));
    assert!(samples.contains_key("mahif_admission_shed_total"));
    assert!(get("mahif_queue_seconds_count") >= 2.0, "batch + register");
    assert!(get("mahif_request_seconds_count") >= 3.0);
    assert!(get("mahif_plan_seconds_count") >= 1.0);
    assert!(get("mahif_execute_seconds_count") >= 1.0);
    assert!(get("mahif_engine_requests_total") >= 1.0);
    assert_eq!(get("mahif_scenarios_answered_total"), 3.0);
    assert!(get("mahif_solver_calls_total") >= 1.0);
    assert!(get("mahif_statements_reenacted_total") >= 1.0);
    assert!(samples.contains_key("mahif_delta_tuples_deduped_total"));

    // Histogram buckets are cumulative in `le` order and the +Inf bucket
    // equals the count.
    let mut last = 0.0;
    let mut infinity = None;
    for line in scrape.body.lines() {
        if let Some(rest) = line.strip_prefix("mahif_request_seconds_bucket{le=\"") {
            let (le, value) = rest.split_once("\"} ").unwrap();
            let value: f64 = value.parse().unwrap();
            assert!(
                value >= last,
                "buckets must be cumulative: le={le} fell from {last} to {value}"
            );
            last = value;
            if le == "+Inf" {
                infinity = Some(value);
            }
        }
    }
    assert_eq!(
        infinity.expect("a +Inf bucket"),
        get("mahif_request_seconds_count"),
        "+Inf bucket equals the count"
    );

    handle.stop();
}

#[test]
fn request_ids_round_trip_and_generated_ids_are_unique() {
    let (handle, addr) = start_server(ServeConfig::default());
    let mut client = HttpClient::new(&addr);

    // A safe client-supplied id is echoed verbatim.
    let reply = client
        .request_with_headers(
            "GET",
            "/healthz",
            None,
            false,
            &[("X-Request-Id", "my-batch.42")],
        )
        .unwrap();
    assert_eq!(reply.header("x-request-id"), Some("my-batch.42"));

    // An unsafe one is discarded and replaced by a generated id.
    let reply = client
        .request_with_headers(
            "GET",
            "/healthz",
            None,
            false,
            &[("X-Request-Id", "evil header")],
        )
        .unwrap();
    let generated = reply.header("x-request-id").unwrap();
    assert_ne!(generated, "evil header");
    assert_eq!(generated.len(), 16, "generated ids are 16 hex chars");

    // Generated ids are unique across a keep-alive pipeline of requests.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..20 {
        let reply = client.request("GET", "/healthz", None, false).unwrap();
        let id = reply
            .header("x-request-id")
            .expect("every response carries an id");
        assert!(seen.insert(id.to_string()), "duplicate request id {id}");
    }

    handle.stop();
}

#[test]
fn slow_log_spans_match_the_server_timing_header() {
    // Threshold zero: every request is "slow", so the test is
    // deterministic without actually being slow.
    let (handle, addr) = start_server(ServeConfig {
        slow_threshold: Duration::ZERO,
        slow_log_capacity: 8,
        ..Default::default()
    });
    // A single keep-alive connection keeps request handling (and so slow
    // log recording) strictly ordered ahead of the `/debug/slow` read.
    let mut client = HttpClient::new(&addr);
    assert_eq!(
        client
            .request("POST", "/histories/retail", Some(REGISTER_BODY), false)
            .unwrap()
            .status,
        201
    );
    let body = sweep_body();
    let reply = client
        .request_with_headers(
            "POST",
            "/histories/retail/batch",
            Some(&body),
            false,
            &[("X-Request-Id", "trace-me")],
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("x-request-id"), Some("trace-me"));
    let header_spans = parse_server_timing(reply.header("server-timing").unwrap());
    // The handler-measured phases plus the engine graft.
    for name in ["parse", "queue", "decode", "plan", "execute", "encode"] {
        assert!(header_spans.contains_key(name), "{header_spans:?}");
    }

    let debug = client.request("GET", "/debug/slow", None, false).unwrap();
    assert_eq!(debug.status, 200);
    let debug = Json::parse(&debug.body).unwrap();
    let entries = debug.get("entries").unwrap().as_array().unwrap();
    let entry = entries
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some("trace-me"))
        .expect("the batch is in the slow log");
    assert_eq!(
        entry.get("target").and_then(Json::as_str),
        Some("POST /histories/retail/batch")
    );
    assert_eq!(entry.get("status").and_then(Json::as_i64), Some(200));
    assert_eq!(entry.get("scenarios").and_then(Json::as_i64), Some(3));
    assert!(entry.get("groups").and_then(Json::as_i64).unwrap() >= 1);
    assert!(entry.get("solver_calls").and_then(Json::as_i64).unwrap() >= 1);
    // Every Server-Timing phase appears verbatim among the entry's spans
    // (the entry additionally has `write`, which postdates the header).
    let span_names: Vec<&str> = entry
        .get("spans")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for name in header_spans.keys() {
        assert!(
            span_names.contains(&name.as_str()),
            "header span {name} missing from /debug/slow spans {span_names:?}"
        );
    }
    assert!(span_names.contains(&"write"));
    // Span offsets are within the request's total.
    let total_ms = entry.get("total_ms").and_then(Json::as_f64).unwrap();
    for span in entry.get("spans").unwrap().as_array().unwrap() {
        let start = span.get("start_ms").and_then(Json::as_f64).unwrap();
        assert!(start >= 0.0 && start <= total_ms, "{span:?}");
    }

    handle.stop();
}

#[test]
fn slow_log_evicts_oldest_first() {
    let (handle, addr) = start_server(ServeConfig {
        slow_threshold: Duration::ZERO,
        slow_log_capacity: 2,
        ..Default::default()
    });
    let mut client = HttpClient::new(&addr);
    for id in ["first", "second", "third"] {
        let reply = client
            .request_with_headers("GET", "/healthz", None, false, &[("X-Request-Id", id)])
            .unwrap();
        assert_eq!(reply.status, 200);
    }
    // Same connection: the third request is recorded before this one runs.
    let debug = client.request("GET", "/debug/slow", None, false).unwrap();
    let debug = Json::parse(&debug.body).unwrap();
    assert_eq!(debug.get("capacity").and_then(Json::as_i64), Some(2));
    let ids: Vec<&str> = debug
        .get("entries")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        ids,
        vec!["second", "third"],
        "oldest-first eviction, oldest-first order"
    );
    handle.stop();
}

#[test]
fn stats_and_metrics_agree_on_admission_state() {
    let (handle, addr) = start_server(ServeConfig {
        max_in_flight_batches: 1,
        max_queued_batches: 0,
        ..Default::default()
    });
    assert_eq!(
        http_post(&addr, "/histories/retail", REGISTER_BODY)
            .unwrap()
            .status,
        201
    );

    // Occupy the only slot, shed one batch, then inspect — all on one
    // keep-alive connection so the shed request is recorded before the
    // reads run.
    let mut client = HttpClient::new(&addr);
    let permit = handle.admission().admit().expect("slot is free");
    let body = format!(
        r#"{{"scenarios": [{{"name": "t60", "whatif": "{}"}}]}}"#,
        whatif(60)
    );
    let shed = client
        .request("POST", "/histories/retail/batch", Some(&body), false)
        .unwrap();
    assert_eq!(shed.status, 429, "{}", shed.body);

    let stats = client.request("GET", "/stats", None, false).unwrap();
    assert_eq!(stats.status, 200);
    let stats = Json::parse(&stats.body).unwrap();
    let admission = stats.get("admission").expect("stats report admission");
    assert_eq!(admission.get("in_flight").and_then(Json::as_i64), Some(1));
    assert_eq!(admission.get("queued").and_then(Json::as_i64), Some(0));
    assert_eq!(
        admission.get("max_in_flight").and_then(Json::as_i64),
        Some(1)
    );
    assert_eq!(admission.get("max_queued").and_then(Json::as_i64), Some(0));
    assert_eq!(admission.get("shed_total").and_then(Json::as_i64), Some(1));

    // /metrics reads the same cells.
    let scrape = client.request("GET", "/metrics", None, false).unwrap();
    assert!(
        scrape.body.contains("mahif_admission_shed_total 1"),
        "{}",
        scrape.body
    );
    assert!(
        scrape.body.contains("mahif_admission_in_flight 1"),
        "{}",
        scrape.body
    );
    assert!(
        scrape
            .body
            .contains(r#"mahif_requests_total{route="batch",status="429"} 1"#),
        "{}",
        scrape.body
    );

    drop(permit);
    handle.stop();
}

#[test]
fn stats_and_metrics_agree_on_plan_cache() {
    let (handle, addr) = start_server(ServeConfig::default());
    let mut client = HttpClient::new(&addr);
    assert_eq!(
        client
            .request("POST", "/histories/retail", Some(REGISTER_BODY), false)
            .unwrap()
            .status,
        201
    );
    // The same sweep twice on one keep-alive connection: the first run
    // misses and provisions a plan, the second hits it.
    let body = sweep_body();
    for _ in 0..2 {
        let reply = client
            .request("POST", "/histories/retail/batch", Some(&body), false)
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
    }

    let stats = client.request("GET", "/stats", None, false).unwrap();
    assert_eq!(stats.status, 200);
    let stats = Json::parse(&stats.body).unwrap();
    let hits = stats.get("plan_cache_hits").and_then(Json::as_i64).unwrap();
    let misses = stats
        .get("plan_cache_misses")
        .and_then(Json::as_i64)
        .unwrap();
    let entries = stats
        .get("plan_cache_entries")
        .and_then(Json::as_i64)
        .unwrap();
    let evictions = stats
        .get("plan_cache_evictions")
        .and_then(Json::as_i64)
        .unwrap();
    assert_eq!(
        (hits, misses, entries, evictions),
        (1, 1, 1, 0),
        "cold sweep misses once and provisions one group plan; warm sweep hits it"
    );

    // /metrics reads the very same cells.
    let scrape = client.request("GET", "/metrics", None, false).unwrap();
    assert_eq!(scrape.status, 200);
    for line in [
        format!("mahif_plan_cache_hits_total {hits}"),
        format!("mahif_plan_cache_misses_total {misses}"),
        format!("mahif_plan_cache_evictions_total {evictions}"),
        format!("mahif_plan_cache_entries {entries}"),
    ] {
        assert!(scrape.body.contains(&line), "{line}\n{}", scrape.body);
    }
    handle.stop();
}

#[test]
fn stats_and_metrics_agree_on_columnar_counters() {
    let (handle, addr) = start_server(ServeConfig::default());
    let mut client = HttpClient::new(&addr);
    assert_eq!(
        client
            .request("POST", "/histories/retail", Some(REGISTER_BODY), false)
            .unwrap()
            .status,
        201
    );
    let reply = client
        .request(
            "POST",
            "/histories/retail/batch",
            Some(&sweep_body()),
            false,
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    // The batch answer reports its own columnar work: every UPDATE of the
    // retail history compiles, so the sweep answers on the columnar path.
    let response = Json::parse(&reply.body).unwrap();
    let request_batches = response
        .get("stats")
        .and_then(|s| s.get("columnar_batches"))
        .and_then(Json::as_i64)
        .unwrap();
    let request_predicates = response
        .get("stats")
        .and_then(|s| s.get("vectorized_predicates"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(request_batches > 0, "{}", reply.body);
    assert!(request_predicates > 0, "{}", reply.body);

    let stats = client.request("GET", "/stats", None, false).unwrap();
    assert_eq!(stats.status, 200);
    let stats = Json::parse(&stats.body).unwrap();
    let batches = stats
        .get("columnar_batches")
        .and_then(Json::as_i64)
        .unwrap();
    let predicates = stats
        .get("vectorized_predicates")
        .and_then(Json::as_i64)
        .unwrap();
    let fallbacks = stats.get("row_fallbacks").and_then(Json::as_i64).unwrap();
    assert_eq!(batches, request_batches);
    assert_eq!(predicates, request_predicates);
    assert_eq!(fallbacks, 0, "every retail statement vectorizes");
    let register_fallbacks = stats
        .get("register_row_fallbacks")
        .and_then(Json::as_i64)
        .unwrap();
    assert_eq!(
        register_fallbacks, 0,
        "the retail history registers on the columnar trunk"
    );

    // /metrics reads the very same cells.
    let scrape = client.request("GET", "/metrics", None, false).unwrap();
    assert_eq!(scrape.status, 200);
    for line in [
        format!("mahif_columnar_batches_total {batches}"),
        format!("mahif_vectorized_predicates_total {predicates}"),
        format!("mahif_row_fallbacks_total {fallbacks}"),
        format!("mahif_register_row_fallbacks_total {register_fallbacks}"),
    ] {
        assert!(scrape.body.contains(&line), "{line}\n{}", scrape.body);
    }
    handle.stop();
}

#[test]
fn healthz_reports_uptime_and_build_info() {
    let (handle, addr) = start_server(ServeConfig::default());
    let reply = http_get(&addr, "/healthz").unwrap();
    assert_eq!(reply.status, 200);
    let body = Json::parse(&reply.body).unwrap();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
    assert!(body.get("uptime_seconds").and_then(Json::as_i64).unwrap() >= 0);
    let version = body.get("version").and_then(Json::as_str).unwrap();
    assert!(!version.is_empty());
    assert!(
        version.chars().next().unwrap().is_ascii_digit(),
        "a semver-ish version, got {version}"
    );
    let build = body.get("build").and_then(Json::as_str).unwrap();
    assert!(!build.is_empty(), "git describe or 'unknown'");
    handle.stop();
}
