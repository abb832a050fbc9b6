//! The `front-server` binary itself: a real process cold-starts a snapshot store
//! holding a Ball-Tree and a BC-Tree entry, announces `READY addr=<addr> pid=<pid>`
//! on its first stdout line within a bounded wait, and answers over the wire
//! bit-identically to the trees it was saved from.

mod common;

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use common::{assert_bits, synthetic_queries, synthetic_rows, TestDir};
use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_core::{P2hIndex, PointSet};
use p2h_front::FrontClient;
use p2h_store::Store;

/// How long a cold start of a small store may take before the test fails.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Kills the server even when an assertion fails.
struct ServerProc(Child);

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

#[test]
fn front_server_boots_from_a_store_and_announces_ready() {
    let seed = 0xB007;
    let points = PointSet::augment(&synthetic_rows(400, seed)).expect("rows");
    let ball = BallTreeBuilder::new(32).with_seed(1).build(&points).expect("ball build");
    let bc = BcTreeBuilder::new(32).with_seed(1).build(&points).expect("bc build");
    let dir = TestDir::new("front-boot");
    let store = Store::create(&dir).expect("create store");
    store.save("ball", &ball).expect("save ball");
    store.save("bc", &bc).expect("save bc");

    let mut server = ServerProc(
        Command::new(env!("CARGO_BIN_EXE_front-server"))
            .arg("--store")
            .arg(&*dir)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn front-server"),
    );
    // Read the banner on a side thread so a server that never prints fails the
    // test after the timeout instead of hanging it.
    let stdout = server.0.stdout.take().expect("child stdout");
    let (send, recv) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        send.send(std::io::BufReader::new(stdout).lines().next()).ok();
    });
    let banner = recv
        .recv_timeout(READY_TIMEOUT)
        .expect("no READY banner within the timeout")
        .expect("server exited before printing a banner")
        .expect("read the banner");
    reader.join().expect("banner reader");
    let rest = banner.strip_prefix("READY addr=").expect("READY banner");
    let (addr, pid) = rest.split_once(" pid=").expect("banner carries the pid");
    assert_eq!(pid.parse::<u32>().expect("numeric pid"), server.0.id(), "banner: {banner}");

    let mut client = FrontClient::connect(addr).expect("connect");
    let queries = synthetic_queries(9, seed);
    for (name, tree) in [("ball", &ball as &dyn P2hIndex), ("bc", &bc)] {
        let outcomes = client.query_many(name, &queries, 0).expect("transport");
        for (position, outcome) in outcomes.into_iter().enumerate() {
            let (query, params) = &queries[position];
            let got = outcome
                .unwrap_or_else(|(code, message)| panic!("{name} q{position}: {code}: {message}"));
            assert_bits(&got, &tree.search(query, params), &format!("{name} q{position}"));
        }
    }
}
