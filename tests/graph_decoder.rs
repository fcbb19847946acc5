//! The segment-graph builder's client-request decoder against the event
//! methods it dispatches to.
//!
//! Taskgrind, ROMP and TaskSanitizer hand every runtime event they model
//! to `GraphBuilder::client_request`. A wrong argument position or a
//! missing arm there can change the graph without moving any verdict
//! (deleting the `IMPLICIT_TASK_END` arm is one such change), so this
//! test compares whole graphs.

use grindcore::creq::{self, task_flags};
use taskgrind::graph::{DepKind, GraphBuilder, ThreadMeta};

#[test]
fn client_request_applies_each_event_like_its_method() {
    let meta = |tid, sp| ThreadMeta {
        tid,
        sp,
        stack_low: 0x6000,
        stack_high: 0x8000,
        ..Default::default()
    };
    let (m0, m1) = (meta(0, 0x7000), meta(1, 0x7800));
    // every modelled code, with a dependence, a detach fulfill, a
    // taskgroup and a critical section on a two-thread team
    let mut b = GraphBuilder::new();
    let mut req = |m: &ThreadMeta, code: u64, args: [u64; 5]| b.client_request(m, code, args);
    let r = req(&m0, creq::PARALLEL_BEGIN, [2, 0, 0, 0, 0]);
    req(&m0, creq::IMPLICIT_TASK_BEGIN, [r, 0, 0, 0, 0]);
    req(&m1, creq::IMPLICIT_TASK_BEGIN, [r, 1, 0, 0, 0]);
    req(&m0, creq::TASKGROUP_BEGIN, [0; 5]);
    let t = req(&m0, creq::TASK_CREATE, [task_flags::DETACHED, 0x100, 0, 0, 0]);
    req(&m0, creq::TASK_DEP, [t, 0xAA, 8, creq::dep_kind::MUTEXINOUTSET, 0]);
    req(&m0, creq::TASK_SPAWN, [t, 0, 0, 0, 0]);
    req(&m1, creq::TASK_BEGIN, [t, 0, 0, 0, 0]);
    req(&m1, creq::TASK_END, [t, 0, 0, 0, 0]);
    req(&m0, creq::TASK_FULFILL, [t, 0, 0, 0, 0]);
    req(&m0, creq::TASKGROUP_END, [0; 5]);
    req(&m0, creq::CRITICAL_ENTER, [7, 0, 0, 0, 0]);
    req(&m0, creq::CRITICAL_EXIT, [7, 0, 0, 0, 0]);
    req(&m0, creq::TASKWAIT, [0; 5]);
    req(&m0, creq::BARRIER, [r, 0, 0, 0, 0]);
    req(&m1, creq::BARRIER, [r, 0, 0, 0, 0]);
    req(&m0, creq::IMPLICIT_TASK_END, [r, 0, 0, 0, 0]);
    req(&m1, creq::IMPLICIT_TASK_END, [r, 1, 0, 0, 0]);
    req(&m0, creq::PARALLEL_END, [r, 0, 0, 0, 0]);
    // the annotation is each tool's to apply, and unknown codes no one's:
    // the included task below keeps its flag
    assert_eq!(req(&m0, creq::USER_DEFERRABLE, [1, 0, 0, 0, 0]), 0);
    assert_eq!(req(&m0, 0xdead, [0; 5]), 0);
    let last = req(&m0, creq::TASK_CREATE, [task_flags::INCLUDED, 0x200, 0, 0, 0]);
    let decoded = b.finalize();
    assert_eq!((r, last as usize), (0, decoded.tasks.len() - 1), "region and task ids");
    let task = &decoded.tasks[t as usize];
    assert!(task.fulfill_seg.is_some() && task.mutex_objs == [0xAA]);

    let mut b = GraphBuilder::new();
    let r = b.parallel_begin(&m0, 2);
    b.implicit_task_begin(&m0, r, 0);
    b.implicit_task_begin(&m1, r, 1);
    b.taskgroup_begin(&m0);
    let t = b.task_create(&m0, task_flags::DETACHED, 0x100);
    b.task_dep(t, 0xAA, 8, DepKind::Mutexinoutset);
    b.task_spawn(&m0, t);
    b.task_begin(&m1, t);
    b.task_end(&m1, t);
    b.task_fulfill(&m0, t);
    b.taskgroup_end(&m0);
    b.critical_enter(&m0, 7);
    b.critical_exit(&m0, 7);
    b.taskwait(&m0);
    b.barrier(&m0, r);
    b.barrier(&m1, r);
    b.implicit_task_end(&m0, r, 0);
    b.implicit_task_end(&m1, r, 1);
    b.parallel_end(&m0, r);
    b.task_create(&m0, task_flags::INCLUDED, 0x200);
    let direct = b.finalize();

    assert_eq!(format!("{decoded:#?}"), format!("{direct:#?}"));
}
