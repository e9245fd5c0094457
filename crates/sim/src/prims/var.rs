use std::sync::{Arc, Mutex};

use sherlock_trace::{AccessClass, OpId, OpKind, Time};

use crate::{api, kernel};

/// A traced heap field: every read and write emits a `FieldRead`/`FieldWrite`
/// event, making the variable eligible both as a conflicting-access endpoint
/// and as a variable-based synchronization candidate (spin loops and flag
/// checks, paper §5.3.2).
///
/// All instances of the same `Class::field` share one inference variable,
/// but each instance has its own object identity for conflict detection.
#[derive(Clone)]
pub struct TracedVar<T> {
    inner: Arc<VarInner<T>>,
}

struct VarInner<T> {
    read: OpId,
    write: OpId,
    object: u64,
    value: Mutex<T>,
}

impl<T: Copy + Send + 'static> TracedVar<T> {
    /// Creates a traced field on a fresh object, interning its read and
    /// write operations once. Must be called from inside a simulated thread.
    pub fn new(class: impl AsRef<str>, field: impl AsRef<str>, initial: T) -> Self {
        let (class, field) = (class.as_ref(), field.as_ref());
        TracedVar {
            inner: Arc::new(VarInner {
                read: OpId::intern(OpKind::FieldRead, class, field),
                write: OpId::intern(OpKind::FieldWrite, class, field),
                object: api::alloc_object(),
                value: Mutex::new(initial),
            }),
        }
    }

    /// Reads the value, tracing a `FieldRead`.
    pub fn get(&self) -> T {
        kernel::kernel_trace(self.inner.read, self.inner.object, AccessClass::Read);
        *self.inner.value.lock().expect("traced var poisoned")
    }

    /// Writes the value, tracing a `FieldWrite`.
    pub fn set(&self, v: T) {
        kernel::kernel_trace(self.inner.write, self.inner.object, AccessClass::Write);
        *self.inner.value.lock().expect("traced var poisoned") = v;
    }

    /// Read-modify-write (traced as one read followed by one write — exactly
    /// the racy increment idiom when used without a lock).
    pub fn update(&self, f: impl FnOnce(T) -> T) -> T {
        let old = self.get();
        let new = f(old);
        self.set(new);
        new
    }

    /// Spin-waits (polling every `poll_interval` of virtual time) until the
    /// predicate holds — the `while (!flag) { }` idiom of paper Fig. 3.B.
    pub fn spin_until(&self, poll_interval: Time, pred: impl Fn(T) -> bool) -> T {
        loop {
            let v = self.get();
            if pred(v) {
                return v;
            }
            api::sleep(poll_interval);
        }
    }

    /// The object identity of this instance.
    pub fn object(&self) -> u64 {
        self.inner.object
    }

    /// The interned op id of this field's read operation.
    pub fn read_op(&self) -> OpId {
        self.inner.read
    }

    /// The interned op id of this field's write operation.
    pub fn write_op(&self) -> OpId {
        self.inner.write
    }
}
