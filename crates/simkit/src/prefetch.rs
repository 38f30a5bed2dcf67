//! Software prefetch: a cache hint for the next items of a known batch.
//!
//! An event loop that already holds the ids of the nodes it will visit next
//! can ask the CPU to start loading their state while it still works on the
//! current one, so the per-node cache misses overlap instead of queueing.
//! [`prefetch`] is a hint only: it writes no memory, returns no value and
//! cannot fault, so calling it or not never changes what a program computes.

/// Cache-line size assumed for the hint, in bytes.
const LINE: usize = 64;

/// At most this many lines are requested per call: a callback touches the
/// head of a large referent first, and each further line costs one more
/// instruction per visit.
const MAX_LINES: usize = 4;

/// Asks the CPU to pull the cache lines of `value` (at most `MAX_LINES` = 4,
/// from its first byte on) into every cache level (`_MM_HINT_T0`).
///
/// `value` may be unsized: a `dyn` object's size comes from its vtable and a
/// slice's from its length. A zero-sized referent requests nothing. On
/// targets other than `x86_64` this is a no-op.
#[inline(always)]
pub fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let size = core::mem::size_of_val(value);
        if size == 0 {
            return;
        }
        let start = (value as *const T).cast::<i8>();
        // Lines touched by `[start, start + size)`, counted from the line
        // that holds `start`.
        let first = start.addr() / LINE;
        let last = (start.addr() + size - 1) / LINE;
        for line in 0..(last - first + 1).min(MAX_LINES) {
            // SAFETY: `_mm_prefetch` only issues a cache hint. It never
            // dereferences its argument, cannot fault on any address and
            // has no effect a program can observe other than timing, so the
            // address (which may lie past the referent's last byte, inside
            // a line the referent touches) need not be valid to read. SSE,
            // the instruction's only target feature, is part of the x86_64
            // baseline.
            #[allow(unsafe_code)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(start.wrapping_add(line * LINE));
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    trait Shape {
        fn area(&self) -> u64;
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Rect {
        w: u64,
        h: u64,
    }

    impl Shape for Rect {
        fn area(&self) -> u64 {
            self.w * self.h
        }
    }

    #[test]
    fn a_dyn_object_is_unchanged() {
        let rect: Box<dyn Shape> = Box::new(Rect { w: 3, h: 7 });
        prefetch(&*rect);
        assert_eq!(rect.area(), 21);
    }

    #[test]
    fn a_slice_is_unchanged() {
        let values: Vec<u32> = (0..100).collect();
        prefetch(values.as_slice());
        prefetch(&values[37..41]);
        prefetch(&values[..0]);
        assert_eq!(values, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn a_zero_sized_value_requests_nothing() {
        #[derive(Debug, PartialEq)]
        struct Marker;
        let marker = Marker;
        prefetch(&marker);
        prefetch(&[(); 8]);
        assert_eq!(marker, Marker);
    }

    #[test]
    fn a_value_larger_than_the_line_cap_is_unchanged() {
        let big = [0xA5u8; LINE * MAX_LINES * 4 + 3];
        prefetch(&big);
        prefetch(&big[1..]);
        assert!(big.iter().all(|&b| b == 0xA5));
    }
}
