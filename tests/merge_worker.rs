//! The receiving daemon's merge worker is the one thread a service starts:
//! none until residual tuples ship, one per receiving host while the
//! service lives, none once it is dropped — its results read or not.
//!
//! One test in a binary of its own, so that it runs in its own process and
//! no other test's threads are counted.

#[cfg(target_os = "linux")]
#[test]
fn the_merge_worker_lives_as_long_as_its_service() {
    use ask::prelude::*;
    use std::time::{Duration, Instant};

    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs lists this process's threads")
            .count()
    }

    let baseline = threads();
    let mut service = AskServiceBuilder::new(3).config(AskConfig::tiny()).build();
    assert_eq!(threads(), baseline, "build() starts no thread");

    let hosts = service.hosts().to_vec();
    let (receiver, senders) = (hosts[0], &hosts[1..]);
    let tasks: Vec<TaskId> = (1..=4).map(TaskId).collect();
    for &task in &tasks {
        service.submit_task(task, receiver, senders);
        for (s, &sender) in senders.iter().enumerate() {
            // Far more distinct keys than the tiny switch region holds.
            let tuples = (0..2_000u64)
                .map(|i| KvTuple::new(Key::from_u64(i * 3 + s as u64), 1))
                .collect();
            service.submit_stream(task, sender, tuples);
        }
    }
    for &task in &tasks {
        service
            .run_until_complete(task, receiver, 50_000_000)
            .expect("completes");
    }
    assert!(service.host_stats(receiver).tuples_host_aggregated > 0);
    assert_eq!(threads(), baseline + 1, "one worker, at the receiver");

    drop(service);
    // `join` returns once the worker has stopped running; the kernel may
    // list its task a moment longer.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), baseline, "dropping the service joins the worker");
}
