//! One `std::thread::scope` wave per call: the coders' only thread model.
//!
//! A wave spawns one scoped thread per chunk of work, joins every one, and
//! returns. Chunks are contiguous and balanced (sizes differ by at most
//! one), so `items % threads != 0` never leaves one thread with a double
//! share. Threads are not kept between calls, so each call pays one
//! thread start-up per chunk; large batches amortize it, a call of a few
//! small blocks does not.

use std::ops::Range;
use std::panic::resume_unwind;

/// `0..len` split into at most `parts` contiguous, non-empty ranges whose
/// lengths differ by at most one.
pub(crate) fn balanced(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let parts = parts.min(len);
    let (base, extra) = (len.checked_div(parts).unwrap_or(0), len.checked_rem(parts).unwrap_or(0));
    (0..parts).scan(0, move |start, i| {
        let range = *start..*start + base + usize::from(i < extra);
        *start = range.end;
        Some(range)
    })
}

/// `input` and the equally long `output` cut into the same balanced
/// chunks ([`balanced`]), paired.
pub(crate) fn balanced_chunks<'a, A, B>(
    input: &'a [A],
    output: &'a mut [B],
    parts: usize,
) -> impl Iterator<Item = (&'a [A], &'a mut [B])> {
    assert_eq!(input.len(), output.len(), "input and output chunks must pair up");
    let mut rest = output;
    balanced(input.len(), parts).map(move |range| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
        rest = tail;
        (&input[range], head)
    })
}

/// Runs `work` on every chunk, each on its own scoped thread, and returns
/// once all have finished.
///
/// # Panics
///
/// Every thread is joined first; then the first panicking chunk's own
/// payload (in chunk order) is resumed on the caller. A bare
/// `std::thread::scope` would replace it with a generic message.
pub(crate) fn run<T: Send>(chunks: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    let work = &work;
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> =
            chunks.into_iter().map(|chunk| scope.spawn(move || work(chunk))).collect();
        handles.into_iter().fold(None, |first, handle| first.or(handle.join().err()))
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_cover_everything_and_differ_by_at_most_one() {
        for len in 0..40 {
            for parts in 1..10 {
                let ranges: Vec<_> = balanced(len, parts).collect();
                assert_eq!(ranges.len(), parts.min(len));
                assert_eq!(ranges.iter().map(|r| r.start).next().unwrap_or(0), 0);
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                assert_eq!(ranges.last().map_or(0, |r| r.end), len);
                let sizes = ranges.iter().map(Range::len);
                let (min, max) = (sizes.clone().min(), sizes.max());
                assert!(max.zip(min).is_none_or(|(max, min)| max - min <= 1 && min > 0));
            }
        }
    }

    #[test]
    fn the_first_panic_payload_reaches_the_caller_after_every_chunk_ran() {
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(0usize..6, |i| {
                ran.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i % 2 == 1 {
                    std::panic::panic_any(i);
                }
            })
        }));
        assert_eq!(*caught.unwrap_err().downcast::<usize>().unwrap(), 1);
        assert_eq!(ran.into_inner(), 6);
    }
}
