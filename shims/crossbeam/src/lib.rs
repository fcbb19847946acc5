//! Offline stand-in for `crossbeam`.
//!
//! Only `crossbeam::scope` is provided, and std has had scoped threads
//! since 1.63 — this adapts `std::thread::scope` to crossbeam's
//! callback signature, where the spawned closure receives the scope
//! again for nested spawns. Nothing calls it since the race analysis
//! went back to one thread; `taskgrind` keeps the dependency until a
//! change to the benchmark can update `tgbench/Cargo.lock` with it.

use std::any::Any;

pub type ScopeResult<T> = Result<T, Box<dyn Any + Send + 'static>>;

#[derive(Clone, Copy)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<'scope, T> ScopedJoinHandle<'scope, T> {
    pub fn join(self) -> ScopeResult<T> {
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        ScopedJoinHandle { inner: inner.spawn(move || f(&Scope { inner })) }
    }
}

/// Run `f` with a thread scope; all spawned threads are joined before
/// this returns. Unlike std, the result is wrapped in `Ok` (crossbeam
/// reports panics of *unjoined* children as `Err`; std's scope
/// re-raises them, so the error arm here is vestigial but keeps caller
/// `.unwrap()`s compiling).
pub fn scope<'env, F, R>(f: F) -> ScopeResult<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(|s| f(&Scope { inner: s })))
}

#[cfg(test)]
mod tests {
    #[test]
    fn fan_out_and_join() {
        let data: Vec<u64> = (0..100).collect();
        let total: u64 = crate::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in data.chunks(24) {
                handles.push(scope.spawn(move |_| chunk.iter().sum::<u64>()));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .unwrap();
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn nested_spawn() {
        let n = crate::scope(|scope| {
            scope.spawn(|inner| inner.spawn(|_| 21).join().unwrap() * 2).join().unwrap()
        })
        .unwrap();
        assert_eq!(n, 42);
    }
}
