//! One metrics store per server: each `SharkServer` counts its queries,
//! rejections and wire traffic in its own registry, so two servers in one
//! process never see each other's numbers — neither in `report()` nor in
//! the Prometheus exposition.

use std::net::TcpStream;

use shark_common::{row, DataType, Schema};
use shark_server::net::frame::{self, Frame};
use shark_server::{NetConfig, ServerConfig, SharkServer};
use shark_sql::TableMeta;

fn server() -> SharkServer {
    // One execution slot and no queue: a second query while a cursor is
    // open is rejected.
    let server = SharkServer::new(ServerConfig::default().with_admission(1, 0));
    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    server.register_table(
        TableMeta::new("t0", schema, 2, |p| {
            (0..50).map(|i| row![(p * 50 + i) as i64]).collect()
        })
        .with_cache(2),
    );
    server.load_table("t0").unwrap();
    server
}

/// The value of an unlabelled sample line `name value` in `text`.
fn sample(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// One statement over a raw connection, read to its QueryDone frame.
fn query_over_tcp(addr: std::net::SocketAddr) {
    let mut conn = TcpStream::connect(addr).unwrap();
    frame::write_frame(
        &mut conn,
        &Frame::Hello {
            token: String::new(),
            tenant: String::new(),
        },
    )
    .unwrap();
    let (reply, _) = frame::read_frame(&mut conn).unwrap();
    assert!(matches!(reply, Frame::HelloOk { .. }), "got {reply:?}");
    frame::write_frame(
        &mut conn,
        &Frame::Query {
            sql: "SELECT COUNT(*) FROM t0".to_string(),
        },
    )
    .unwrap();
    loop {
        match frame::read_frame(&mut conn).unwrap().0 {
            Frame::QueryDone { .. } => break,
            Frame::Error { message, .. } => panic!("query failed: {message}"),
            _ => {}
        }
    }
    frame::write_frame(&mut conn, &Frame::Close).unwrap();
}

#[test]
fn two_servers_in_one_process_count_separately() {
    let busy = server();
    let idle = server();

    // Traffic on `busy` only: blocking and streamed queries, a rejection
    // while a cursor holds the one slot, and a statement over TCP.
    let session = busy.session();
    session.sql("SELECT k FROM t0 WHERE k > 10").unwrap();
    let mut cursor = session.sql_stream("SELECT k FROM t0").unwrap();
    assert!(busy.session().sql("SELECT COUNT(*) FROM t0").is_err());
    cursor.fetch_all().unwrap();
    let mut net = busy.serve(NetConfig::default()).unwrap();
    query_over_tcp(net.local_addr());
    net.shutdown();

    let report = busy.report();
    assert_eq!(report.total_queries, 3);
    assert_eq!(report.rejected_queries, 1);
    assert_eq!(report.net_queries, 1);
    assert_eq!(report.connections_opened, 1);
    assert!(report.wire_bytes_sent > 0);
    let text = busy.render_prometheus();
    assert_eq!(sample(&text, "shark_queries_total"), Some(3.0));
    assert_eq!(sample(&text, "shark_rejected_total"), Some(1.0));
    assert_eq!(sample(&text, "shark_net_queries_total"), Some(1.0));
    assert_eq!(
        sample(&text, "shark_net_connections_opened_total"),
        Some(1.0)
    );
    // The report and the registry are one store.
    let snap = busy.metrics().snapshot();
    assert_eq!(snap.counter("shark_queries_total"), report.total_queries);
    assert_eq!(
        snap.counter("shark_net_bytes_sent_total"),
        report.wire_bytes_sent
    );

    // The other server saw none of it.
    let report = idle.report();
    assert_eq!(report.total_queries, 0);
    assert_eq!(report.rejected_queries, 0);
    assert_eq!(report.connections_opened, 0);
    assert_eq!(report.net_queries, 0);
    assert_eq!(report.wire_bytes_sent, 0);
    assert_eq!(report.wire_bytes_received, 0);
    let text = idle.render_prometheus();
    for family in [
        "shark_queries_total",
        "shark_rejected_total",
        "shark_net_connections_opened_total",
        "shark_net_queries_total",
        "shark_net_bytes_sent_total",
        "shark_net_frames_received_total",
    ] {
        assert_eq!(
            sample(&text, family),
            Some(0.0),
            "{family} on the idle server"
        );
    }
    assert!(text.contains("shark_admission_wait_seconds_count 0"));
    // Each family appears once: the server's families are not also
    // registered in the process-wide registry that follows them.
    assert_eq!(text.matches("# TYPE shark_queries_total ").count(), 1);
    assert_eq!(
        text.matches("# TYPE shark_net_bytes_sent_total ").count(),
        1
    );
}
