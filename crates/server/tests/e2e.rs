//! End-to-end tests over real loopback TCP: CRUD across shards,
//! pipelining, malformed-frame handling, admission-control overload, and
//! the drain-on-shutdown contract.

use std::io::Write as _;
use std::net::TcpStream;

use ldc_client::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, ResponseBody, Status,
    MAX_FRAME, NO_SHARD,
};
use ldc_client::{Client, NetError};
use ldc_server::{LdcServer, ServerConfig, ShardRouter};

fn start_small() -> LdcServer {
    LdcServer::start(ServerConfig::small_for_tests()).unwrap()
}

#[test]
fn crud_round_trips_across_shards() {
    let server = start_small();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let router = ShardRouter::new(server.shard_count());
    let mut shards_hit = vec![false; server.shard_count()];
    for i in 0..200u32 {
        let key = format!("user{i:05}").into_bytes();
        let value = format!("payload-{i}").into_bytes();
        let meta = client.put(&key, &value).unwrap();
        assert_eq!(meta.shard as usize, router.shard_of(&key));
        shards_hit[meta.shard as usize] = true;
    }
    assert!(
        shards_hit.iter().all(|&h| h),
        "200 keys left a shard idle: {shards_hit:?}"
    );

    for i in (0..200u32).step_by(7) {
        let key = format!("user{i:05}").into_bytes();
        let (value, meta) = client.get(&key).unwrap();
        assert_eq!(value, Some(format!("payload-{i}").into_bytes()));
        assert_eq!(meta.shard as usize, router.shard_of(&key));
    }
    let (missing, _) = client.get(b"absent").unwrap();
    assert_eq!(missing, None);

    // Cross-shard merged scan: globally key-ordered, honors the limit.
    let (rows, meta) = client.scan(b"user", 50).unwrap();
    assert_eq!(rows.len(), 50);
    assert_eq!(meta.shard, NO_SHARD);
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(rows[0].0, b"user00000".to_vec());

    // Batched lookup spanning shards, request order preserved.
    let keys: Vec<&[u8]> = vec![b"user00003", b"absent", b"user00199", b"user00042"];
    let (values, _) = client.multi_get(&keys).unwrap();
    assert_eq!(values[0], Some(b"payload-3".to_vec()));
    assert_eq!(values[1], None);
    assert_eq!(values[2], Some(b"payload-199".to_vec()));
    assert_eq!(values[3], Some(b"payload-42".to_vec()));

    client.delete(b"user00003").unwrap();
    assert_eq!(client.get(b"user00003").unwrap().0, None);

    let stats = client.stats().unwrap();
    assert_eq!(stats.protocol_errors, 0);
    let accepted: u64 = stats.shards.iter().map(|s| s.accepted).sum();
    let completed: u64 = stats.shards.iter().map(|s| s.completed).sum();
    assert!(accepted > 200);
    assert_eq!(stats.shards.iter().map(|s| s.rejected).sum::<u64>(), 0);
    assert!(completed >= accepted - u64::from(stats.shards.iter().map(|s| s.depth).sum::<u32>()));
    server.shutdown();
}

#[test]
fn pipeline_returns_in_request_order() {
    // Queues deep enough that a full-speed 120-request burst cannot trip
    // admission control (that behavior has its own test below).
    let mut config = ServerConfig::small_for_tests();
    config.queue_capacity = 256;
    let server = LdcServer::start(config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let puts: Vec<Request> = (0..120u32)
        .map(|i| Request::Put {
            key: format!("p{i:04}").into_bytes(),
            value: format!("v{i}").into_bytes(),
        })
        .collect();
    let responses = client.pipeline(&puts).unwrap();
    assert_eq!(responses.len(), 120);
    assert!(responses.iter().all(|r| r.status == Status::Ok));

    let gets: Vec<Request> = (0..120u32)
        .map(|i| Request::Get {
            key: format!("p{i:04}").into_bytes(),
        })
        .collect();
    let responses = client.pipeline(&gets).unwrap();
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            resp.body,
            ResponseBody::Value(Some(format!("v{i}").into_bytes())),
            "response {i} out of order or wrong"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_frames_get_protocol_errors_not_crashes() {
    let server = start_small();

    // A garbage body inside a well-formed frame: server answers
    // `Protocol` and keeps the connection usable.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut garbage = 77u64.to_le_bytes().to_vec();
    garbage.push(200); // unknown opcode
    write_frame(&mut raw, &garbage).unwrap();
    raw.flush().unwrap();
    let resp = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert_eq!(resp.status, Status::Protocol);
    assert_eq!(resp.req_id, 77, "req id should be echoed best-effort");

    // Truncated body (frame shorter than the request header).
    write_frame(&mut raw, &[1, 2, 3]).unwrap();
    raw.flush().unwrap();
    let resp = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert_eq!(resp.status, Status::Protocol);

    // The same connection still serves valid requests afterwards.
    write_frame(&mut raw, &encode_request(5, &Request::Ping)).unwrap();
    raw.flush().unwrap();
    let resp = decode_response(&read_frame(&mut raw).unwrap()).unwrap();
    assert_eq!((resp.req_id, resp.status), (5, Status::Ok));

    // An oversized length prefix cannot be resynchronized: the server
    // answers `Protocol` once and closes.
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    hostile.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    hostile.flush().unwrap();
    let resp = decode_response(&read_frame(&mut hostile).unwrap()).unwrap();
    assert_eq!(resp.status, Status::Protocol);
    assert!(matches!(
        read_frame(&mut hostile),
        Err(ldc_client::proto::FrameError::Eof)
    ));

    // Both errors were counted; the server is still healthy.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.protocol_errors, 3);
    client.put(b"still", b"alive").unwrap();
    server.shutdown();
}

#[test]
fn overload_rejects_with_retry_after_and_recovers() {
    let mut config = ServerConfig::small_for_tests();
    config.queue_capacity = 2;
    config.retry_after_ms = 25;
    let server = LdcServer::start(config).unwrap();
    let router = ShardRouter::new(server.shard_count());

    // Ten keys all owned by shard 0.
    let keys: Vec<Vec<u8>> = (0..10_000u32)
        .map(|i| format!("ov{i:06}").into_bytes())
        .filter(|k| router.shard_of(k) == 0)
        .take(10)
        .collect();
    assert_eq!(keys.len(), 10);

    // Park shard 0's worker so admitted jobs cannot drain, then fire the
    // burst: at most `capacity` (+1 if the pause sentinel still occupies
    // a slot) are admitted, the rest must be rejected immediately.
    let guard = server.pause_shard(0).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    let (mut tx, mut rx) = client.split().unwrap();
    for key in &keys {
        tx.send(&Request::Put {
            key: key.clone(),
            value: b"burst".to_vec(),
        })
        .unwrap();
    }
    tx.flush().unwrap();

    // Rejections arrive while the worker is parked.
    let mut rejected = 0usize;
    while rejected < keys.len() - 2 {
        let resp = rx.recv().unwrap().expect("connection stays open");
        assert_eq!(resp.status, Status::Overloaded, "expected a rejection");
        assert_eq!(resp.body, ResponseBody::RetryAfterMs(25));
        rejected += 1;
    }

    // A second connection still gets liveness service under overload.
    let mut probe = Client::connect(server.local_addr()).unwrap();
    probe.ping().unwrap();
    let stats = probe.stats().unwrap();
    assert!(stats.shards[0].rejected >= (keys.len() as u64) - 2);
    assert_eq!(stats.shards[0].capacity, 2);
    assert!(stats.shards[0].depth_high_water >= 1);

    // Release the shard: every admitted put completes Ok. (If the pause
    // sentinel still held a queue slot during the burst, one extra
    // rejection may trail in here.)
    drop(guard);
    let mut ok = 0;
    let remaining = keys.len() - rejected;
    for _ in 0..remaining {
        let resp = rx.recv().unwrap().expect("connection stays open");
        match resp.status {
            Status::Ok => ok += 1,
            Status::Overloaded => rejected += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!((1..=2).contains(&ok), "admitted {ok} with capacity 2");
    assert_eq!(ok + rejected, keys.len());

    // Overload was observable, never fatal: counters add up and the
    // server keeps serving.
    let shard_rejected: u64 = server
        .stats_snapshot()
        .shards
        .iter()
        .map(|s| s.rejected)
        .sum();
    assert_eq!(shard_rejected, rejected as u64);
    let (value, _) = probe.get(&keys[0]).unwrap();
    // keys[0] was the first send: admitted (queue was empty), so it
    // must have been persisted on release.
    assert_eq!(value, Some(b"burst".to_vec()));

    // Admission blame shows up in the server's taxonomy.
    let blame = server.metrics().blame_totals(ldc_obs::OpType::Put);
    assert!(
        blame[ldc_obs::Blame::Admission.index()] > 0,
        "queued puts must attribute wait to the admission bucket: {blame:?}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_and_closes_cleanly() {
    let server = start_small();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..300u32 {
        client
            .put(format!("d{i:05}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    let (value, _) = client.get(b"d00042").unwrap();
    assert_eq!(value, Some(b"v42".to_vec()));

    server.shutdown();

    // The connection was closed after in-flight work drained; new
    // requests fail with a transport error, not a hang or a panic.
    let err = client.put(b"late", b"write").unwrap_err();
    match err {
        NetError::Io(_) | NetError::Disconnected | NetError::TornFrame => {}
        other => panic!("unexpected error after shutdown: {other}"),
    }
}

#[test]
fn shutdown_via_drop_does_not_hang() {
    let server = start_small();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.put(b"k", b"v").unwrap();
    drop(server);
    assert!(client.put(b"k2", b"v2").is_err());
}

#[test]
fn udc_mode_serves_identically() {
    let server = LdcServer::start(ServerConfig::small_for_tests().udc()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..100u32 {
        client
            .put(format!("u{i:04}").as_bytes(), format!("w{i}").as_bytes())
            .unwrap();
    }
    let (rows, _) = client.scan(b"u", 1000).unwrap();
    assert_eq!(rows.len(), 100);
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    server.shutdown();
}

#[test]
fn lockcheck_sanitizer_clean_session() {
    // Turn the runtime lock-order sanitizer on for the whole process
    // (equivalent to LDC_LOCKCHECK=1) and drive a busy mixed session over
    // every shard. Any rank inversion panics the acquiring thread, which
    // surfaces here as a request error or a hung shutdown.
    ldc_obs::lockcheck::enable();
    let server = start_small();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..300u32 {
        let key = format!("lk{i:05}").into_bytes();
        client.put(&key, format!("v{i}").as_bytes()).unwrap();
        if i % 3 == 0 {
            let (value, _) = client.get(&key).unwrap();
            assert_eq!(value, Some(format!("v{i}").into_bytes()));
        }
    }
    let (rows, _) = client.scan(b"lk", 64).unwrap();
    assert_eq!(rows.len(), 64);
    client.stats().unwrap();
    server.shutdown();
    // A clean run leaves this thread holding no ranked locks, and the
    // sanitizer is active in debug builds / compiled out in release.
    assert_eq!(ldc_obs::lockcheck::held_depth(), 0);
    assert_eq!(ldc_obs::lockcheck::is_active(), cfg!(debug_assertions));
}

#[test]
fn follower_serves_reads_rejects_writes_and_catches_up() {
    use ldc_core::lsm::Options;
    use ldc_core::ssd::{MemStorage, SsdConfig, SsdDevice, StorageBackend};
    use ldc_core::LdcDb;
    use std::sync::Arc;

    let key = |i: u32| format!("fk{i:05}").into_bytes();
    let value = |i: u32| format!("fv-{i:05}-{}", "x".repeat(48)).into_bytes();

    // A primary store (no server needed) publishes a backup on its own
    // storage; the follower server bootstraps straight from it.
    let src: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
    let primary = LdcDb::builder()
        .options(Options::small_for_tests())
        .storage(Arc::clone(&src))
        .build()
        .unwrap();
    for i in 0..200 {
        primary.put(&key(i), &value(i)).unwrap();
    }
    primary.drain_background();
    primary.backup_begin("e2e").unwrap();

    let server =
        LdcServer::start_follower(ServerConfig::small_for_tests(), Arc::clone(&src), "e2e")
            .unwrap();
    assert_eq!(server.shard_count(), 1, "a follower is a single shard");
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Bootstrap state served over the wire, including merged scans.
    let (v, meta) = client.get(&key(7)).unwrap();
    assert_eq!(v, Some(value(7)));
    assert_eq!(meta.shard, 0);
    let (rows, _) = client.scan(b"fk", 25).unwrap();
    assert_eq!(rows.len(), 25);
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));

    // Writes bounce at dispatch with the dedicated non-retryable status.
    for result in [client.put(b"w", b"x"), client.delete(&key(0))] {
        match result {
            Err(NetError::Remote { status, .. }) => {
                assert_eq!(status, Status::ReadOnly);
                assert!(!status.is_retryable());
            }
            other => panic!("expected ReadOnly rejection, got {other:?}"),
        }
    }
    let (still, _) = client.get(&key(0)).unwrap();
    assert_eq!(still, Some(value(0)), "rejected delete must not apply");

    // New primary writes flow through the stream; poll_follower gives a
    // deterministic catch-up handle (the idle poller also runs).
    for i in 200..300 {
        primary.put(&key(i), &value(i)).unwrap();
    }
    primary.flush().unwrap();
    primary.drain_background();
    let mut rounds = 0;
    loop {
        server.poll_follower().expect("poll must run on a follower");
        let (v, _) = client.get(&key(299)).unwrap();
        if v == Some(value(299)) {
            break;
        }
        rounds += 1;
        assert!(rounds < 100, "follower failed to catch up");
    }
    assert_eq!(server.replication_lag(), Some(0));

    let stats = client.stats().unwrap();
    assert!(stats.follower, "stats must mark the follower");
    assert_eq!(stats.follower_lag, 0);
    assert!(stats.follower_cursor > 0, "cursor must reflect applies");
    server.shutdown();
}
