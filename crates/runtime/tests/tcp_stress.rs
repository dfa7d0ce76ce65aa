//! Adversarial transport clients: a peer that dribbles bytes one at a
//! time and a peer that stops reading its responses. Neither may wedge
//! the acceptor path, the partition writer thread, or the event loops;
//! the slow reader is disconnected by its bounded outbox, and shutdown
//! still joins every thread deterministically afterwards.

use bytes::Bytes;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use wren_clock::Timestamp;
use wren_net::Hello;
use wren_protocol::frame::{frame_wren, FrameDecoder};
use wren_protocol::{ClientId, Key, WrenMsg};
use wren_rt::ClusterBuilder;

/// Joins a thread but panics (instead of hanging the suite) if it takes
/// longer than `secs` — the watchdog for "deterministic shutdown".
fn join_within<T: Send + 'static>(
    handle: std::thread::JoinHandle<T>,
    secs: u64,
    what: &str,
) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "{what} did not finish in {secs}s");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().unwrap_or_else(|_| panic!("{what} panicked"))
}

/// Reads exactly one framed message from a raw socket.
fn read_one_msg(stream: &mut TcpStream) -> WrenMsg {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(payload) = dec.next_frame().unwrap() {
            return WrenMsg::decode(&payload).expect("server sends valid frames");
        }
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed before responding");
        dec.extend(&buf[..n]);
    }
}

/// A client that dribbles its handshake and requests one byte at a time
/// must not wedge the accept path: sessions connecting *after* the
/// dribbler keep transacting at full speed, and the dribbler still gets
/// its (correct) response eventually.
#[test]
fn dribbling_client_wedges_nothing() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();
    let addr = cluster.server_addrs()[0];

    let dribbler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        wire.extend_from_slice(&Hello::Client(ClientId(50_000)).encode_framed());
        wire.extend_from_slice(&frame_wren(&WrenMsg::StartTxReq {
            lst: Timestamp::ZERO,
            rst: Timestamp::ZERO,
        }));
        for b in wire {
            stream.write_all(&[b]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let resp = read_one_msg(&mut stream);
        assert!(
            matches!(resp, WrenMsg::StartTxResp { .. }),
            "dribbled request must still get its response, got {resp:?}"
        );
    });

    // While the dribbler crawls, fresh sessions connect to the same
    // partition's listener and transact freely.
    let mut s = cluster.session(0);
    for i in 0..30u64 {
        s.begin().unwrap();
        s.write(Key(i), Bytes::from(i.to_le_bytes().to_vec()));
        s.commit().unwrap();
    }
    assert_eq!(s.stats().txs_committed, 30, "healthy session starved");

    join_within(dribbler, 30, "dribbling client");
    drop(s);
    let stop = std::thread::spawn(move || cluster.stop());
    join_within(stop, 30, "cluster stop after dribbling client");
}

/// A client that requests data and then stops reading must back up its
/// own bounded outbox and get disconnected — while the partition writer
/// thread keeps serving everyone else, and shutdown still joins
/// everything.
#[test]
fn stalled_reader_is_disconnected_not_blocking() {
    // Tiny outbox so the overflow trips long before the test's data
    // volume; big values so kernel socket buffers saturate quickly.
    let cluster = ClusterBuilder::new()
        .dcs(1)
        .partitions(2)
        .tcp()
        .tcp_client_outbox_bytes(64 * 1024)
        .build();
    let n_partitions = 2u16;

    // A key owned by partition 0, whose listener the stalled client
    // dials: its reads are then served (and queued) by that partition.
    let big_key = (0..u64::MAX)
        .map(Key)
        .find(|k| k.partition(n_partitions).index() == 0)
        .unwrap();
    let big_value = Bytes::from(vec![0xAB; 48 * 1024]);

    let mut seeder = cluster.session(0);
    seeder.begin().unwrap();
    seeder.write(big_key, big_value.clone());
    seeder.commit().unwrap();
    // Wait until the write is in the stable snapshot — probed from a
    // session that did NOT write it, so the answer comes from the
    // server, not the writer's client-side cache.
    let mut prober = cluster.session(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        prober.begin().unwrap();
        let got = prober.read_one(big_key).unwrap();
        prober.commit().unwrap();
        if got.as_ref().map(|v| v.len()) == Some(big_value.len()) {
            break;
        }
        assert!(Instant::now() < deadline, "seed value never stabilized");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(prober);

    let addr = cluster.server_addrs()[0];
    let staller = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&Hello::Client(ClientId(60_000)).encode_framed())
            .unwrap();
        stream
            .write_all(&frame_wren(&WrenMsg::StartTxReq {
                lst: Timestamp::ZERO,
                rst: Timestamp::ZERO,
            }))
            .unwrap();
        // Read the start response (to learn the tx id), then never read
        // again — every subsequent ~48 KiB response queues server-side.
        let WrenMsg::StartTxResp { tx, .. } = read_one_msg(&mut stream) else {
            panic!("expected StartTxResp");
        };
        let req = frame_wren(&WrenMsg::TxReadReq {
            tx,
            keys: vec![big_key],
        });
        // ~500 × 48 KiB ≈ 24 MiB of responses: far beyond kernel socket
        // buffering plus the 64 KiB outbox — the overflow must trip and
        // the server must sever the connection. Writes failing (reset
        // by the server) is the success signal; nothing here blocks
        // forever because the requests themselves are tiny.
        let mut severed = false;
        for _ in 0..500 {
            if stream.write_all(&req).is_err() {
                severed = true;
                break;
            }
        }
        if !severed {
            // All requests fit into buffers before the cut; the server
            // still severs once the outbox overflows. Observe it as EOF
            // or reset on a (bounded) read.
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let mut sink = vec![0u8; 64 * 1024];
            let drained_deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => break, // severed
                    Ok(_) => {} // late drain of the queued tail
                }
                assert!(
                    Instant::now() < drained_deadline,
                    "server never severed the stalled connection"
                );
            }
        }
    });

    // The partition writer thread must stay responsive throughout: a
    // healthy session on the SAME partition keeps committing with a
    // hard deadline.
    let healthy_deadline = Instant::now() + Duration::from_secs(30);
    let mut healthy = cluster.session(0);
    for i in 0..100u64 {
        healthy.begin().unwrap();
        healthy.write(big_key, Bytes::from(i.to_le_bytes().to_vec()));
        healthy.commit().unwrap();
        assert!(
            Instant::now() < healthy_deadline,
            "healthy session starved by a stalled peer"
        );
    }

    join_within(staller, 60, "stalled client");
    drop(seeder);
    drop(healthy);
    let stop = std::thread::spawn(move || cluster.stop());
    let stats = join_within(stop, 30, "cluster stop after stalled client");
    assert_eq!(stats.len(), 2, "deterministic shutdown joined every engine");
}

/// A prompt reader is never disconnected for one large response: a
/// single response frame bigger than the client outbox cap is admitted
/// when the queue is empty (the cap catches stalled readers, not big
/// messages).
#[test]
fn large_response_to_prompt_reader_survives_tiny_outbox_cap() {
    let cluster = ClusterBuilder::new()
        .dcs(1)
        .partitions(2)
        .tcp()
        .tcp_client_outbox_bytes(1024) // far below the response size
        .build();
    let big = Bytes::from(vec![0x5A; 32 * 1024]);
    let mut writer = cluster.session(0);
    writer.begin().unwrap();
    writer.write(Key(3), big.clone());
    writer.commit().unwrap();
    let mut reader = cluster.session(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        reader.begin().unwrap();
        let got = reader.read_one(Key(3)).unwrap();
        reader.commit().unwrap();
        if got.as_ref().map(|v| v.len()) == Some(big.len()) {
            break;
        }
        assert!(Instant::now() < deadline, "32 KiB response never arrived");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(writer);
    drop(reader);
    let stop = std::thread::spawn(move || cluster.stop());
    join_within(stop, 30, "cluster stop after large response");
}

/// The transport's request bounds are enforced at the server boundary,
/// not just in the session library: a raw client pushing an over-wide
/// read is severed, and the library surfaces the same bound as a clean
/// error instead.
#[test]
fn over_wide_read_is_bounded_at_both_ends() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();

    // Library side: > 512 uncached keys in one read errors cleanly.
    let mut session = cluster.session(0);
    session.begin().unwrap();
    let keys: Vec<Key> = (0..600).map(Key).collect();
    assert!(
        matches!(session.read(&keys), Err(wren_rt::RtError::TooLarge)),
        "over-wide library read must error cleanly"
    );
    drop(session); // tx intentionally abandoned

    // Raw side: the same over-wide request from a hand-rolled client is
    // severed at the boundary (no response, no server-side panic).
    let addr = cluster.server_addrs()[0];
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&Hello::Client(ClientId(80_000)).encode_framed())
        .unwrap();
    stream
        .write_all(&frame_wren(&WrenMsg::StartTxReq {
            lst: Timestamp::ZERO,
            rst: Timestamp::ZERO,
        }))
        .unwrap();
    let WrenMsg::StartTxResp { tx, .. } = read_one_msg(&mut stream) else {
        panic!("expected StartTxResp");
    };
    stream
        .write_all(&frame_wren(&WrenMsg::TxReadReq {
            tx,
            keys: (0..600).map(Key).collect(),
        }))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 256];
    match stream.read(&mut sink) {
        Ok(0) | Err(_) => {} // severed
        Ok(n) => panic!("expected severed connection, got {n} bytes"),
    }

    // The partition is unharmed either way.
    let mut healthy = cluster.session(0);
    healthy.begin().unwrap();
    healthy.write(Key(1), Bytes::from_static(b"ok"));
    healthy.commit().unwrap();
    drop(healthy);
    let stop = std::thread::spawn(move || cluster.stop());
    join_within(stop, 30, "cluster stop after over-wide reads");
}

/// A client that vanishes mid-frame (truncated request) is dropped
/// without poisoning the partition; an oversized length prefix is
/// rejected before any buffering.
#[test]
fn truncated_request_is_severed_cleanly() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();
    let addr = cluster.server_addrs()[0];
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&Hello::Client(ClientId(70_000)).encode_framed())
            .unwrap();
        let framed = frame_wren(&WrenMsg::StartTxReq {
            lst: Timestamp::ZERO,
            rst: Timestamp::ZERO,
        });
        stream.write_all(&framed[..framed.len() - 3]).unwrap();
        // Drop: the connection dies mid-frame.
    }
    // An oversized length prefix is rejected (never buffered).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&Hello::Client(ClientId(70_001)).encode_framed())
            .unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut sink = [0u8; 64];
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Server severs: EOF (or reset) rather than a response.
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("expected severed connection, got {n} bytes"),
        }
    }
    // The partition is unharmed.
    let mut s = cluster.session(0);
    s.begin().unwrap();
    s.write(Key(1), Bytes::from_static(b"fine"));
    s.commit().unwrap();
    drop(s);
    let stop = std::thread::spawn(move || cluster.stop());
    join_within(stop, 30, "cluster stop after truncated client");
}
