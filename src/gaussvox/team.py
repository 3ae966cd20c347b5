"""Processes that run one loop in lockstep, for ``fit(threads=N)``.

Entering ``Team(size, arena_bytes)`` forks ``size - 1`` workers.  Every
process, rank 0 the caller and ranks 1 to ``size - 1`` the workers, then
runs the body of the ``with`` block: the same code on the same data, so all
of them make the same calls in the same order.  A heavy pass gives each
rank a contiguous share of its work, through ``span`` or ``pack``; each
rank writes the results that other ranks read into arrays that every
process sees, taken from one ``MAP_SHARED`` anonymous mapping made before
the fork, and ``barrier`` waits until every rank is done.  A result that
only its own rank reads, such as a ``fit`` rank's gradients, stays in that
rank's memory and needs no barrier.  At size 1 there is no fork and no
mapping: ``zeros`` and ``empty`` are numpy's, ``barrier`` does nothing and
the one rank takes all the work.

A worker leaves by ``os._exit`` only, at the end of the block, so it never
unwinds into its caller's stack.  A worker's error is sent to rank 0, which
raises it again, as the same type, at its next barrier or at the end of the
block.  Rank 0 reaps every worker when the block ends, however it ends, and
a worker exits once its pipe from rank 0 closes, so none outlives the call.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

# Each array of the arena starts on a cache line of its own.
_ALIGN = 64


def check_threads(threads) -> int:
    """``threads`` as an int; ValueError unless it is a positive int (not a bool)."""
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be a positive int, got {threads!r}")
    return int(threads)


class Team:
    """``size`` processes that run the body of a ``with`` block in lockstep."""

    def __init__(self, size: int, arena_bytes: int = 0):
        self.size = check_threads(size)
        self.rank = 0
        self._arena_bytes = arena_bytes
        self._arena = None  # a uint8 view of the mapping, with size >= 2
        self._top = self._kept = 0
        self._workers = []  # rank 0: (pid, pipe to it, pipe from it) per worker
        self._pipes = None  # a worker: its pipes from and to rank 0

    def __enter__(self) -> "Team":
        if self.size == 1:
            return self
        # mmap, signal and traceback are imported only where a team forks.
        import mmap

        self._arena = np.frombuffer(
            mmap.mmap(-1, self._arena_bytes + _ALIGN, flags=mmap.MAP_SHARED), np.uint8)
        try:
            for rank in range(1, self.size):
                down_r, down_w = os.pipe()
                up_r, up_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    self._become_worker(rank, down_r, up_w, [down_w, up_r])
                    return self
                os.close(down_r)
                os.close(up_w)
                self._workers.append((pid, down_w, up_r))
        except BaseException:
            self._reap(kill=True)
            raise
        return self

    def _become_worker(self, rank: int, down: int, up: int, theirs: list) -> None:
        try:
            # Only rank 0 may hold the other ends, so that a worker sees its
            # pipe close when rank 0 ends.
            for fd in theirs + [fd for _, *pipes in self._workers for fd in pipes]:
                os.close(fd)
            self._workers, self._pipes, self.rank = [], (down, up), rank
        except BaseException:
            os._exit(1)

    def __exit__(self, kind, error, tb) -> bool:
        if self.rank:
            try:
                if error is not None:
                    os.write(self._pipes[1], b"!" + _pickled(error))
            finally:
                os._exit(0 if error is None else 1)
        self._arena = None  # the mapping goes with its last view
        failure = self._reap(kill=error is not None)
        if error is None and failure is not None:
            raise failure
        return False

    def _reap(self, kill: bool):
        """Close every worker's pipes and wait for it; the first worker error seen, if any."""
        if not self._workers:
            return None
        import signal

        failure = None
        for rank, (pid, down, up) in enumerate(self._workers, 1):
            os.close(down)
            if kill:
                os.kill(pid, signal.SIGKILL)
            else:
                message = _read_all(up)
                if failure is None and b"!" in message:
                    failure = _unpickled(message[message.index(b"!") + 1:], rank)
            os.close(up)
            os.waitpid(pid, 0)
        self._workers = []
        return failure

    def barrier(self) -> None:
        """Wait until every rank has called it; raise a worker's error in rank 0."""
        if self._pipes is not None:
            down, up = self._pipes
            os.write(up, b".")
            if not os.read(down, 1):
                os._exit(0)  # rank 0 has ended
            return
        for rank, (_, _, up) in enumerate(self._workers, 1):
            byte = os.read(up, 1)
            if byte != b".":
                raise _unpickled(_read_all(up) if byte == b"!" else b"", rank)
        for _, down, _ in self._workers:
            os.write(down, b".")

    def reset(self) -> None:
        """Start a round: wait for every rank, then take the arena's arrays again from
        the end of those that ``keep`` keeps."""
        self.barrier()
        self._top = self._kept

    def keep(self) -> None:
        """Keep the arena's arrays taken so far: no later ``reset`` hands out their pages."""
        self._kept = self._top

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized array that every rank sees."""
        dtype = np.dtype(dtype)
        if self._arena is None:
            return np.empty(shape, dtype)
        size = int(np.prod(shape)) * dtype.itemsize
        start = self._top
        self._top += -(-size // _ALIGN) * _ALIGN
        if self._top > self._arena.size:
            raise RuntimeError(f"the team's arena of {self._arena.size} bytes is full")
        return self._arena[start:start + size].view(dtype).reshape(shape)

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        """An array of zeros that every rank sees; each rank clears a share of its rows."""
        if self._arena is None:
            return np.zeros(shape, dtype)
        out = self.empty(shape, dtype)
        lo, hi = self.span(np.arange(out.shape[0] + 1))
        out[lo:hi] = 0
        self.barrier()
        return out

    def span(self, running) -> tuple[int, int]:
        """This rank's items [lo, hi), cut by their work.

        ``running`` is the running total of the items' work, k + 1 entries
        from 0.  The ranks take contiguous ranges in rank order, each about
        a ``size``-th of the total; a range may be empty.
        """
        running = np.asarray(running)
        cuts = np.searchsorted(running, running[-1] * np.arange(self.size + 1) / self.size)
        cuts = np.minimum(cuts, running.size - 1)
        cuts[0], cuts[-1] = 0, running.size - 1
        return int(cuts[self.rank]), int(cuts[self.rank + 1])

    def pack(self, work: np.ndarray) -> np.ndarray:
        """The ascending items of ``work`` that this rank takes.

        Largest first, each item goes to the rank with the least work so
        far, the lowest of those on ties, so every rank finds the same packing.
        """
        load = np.zeros(self.size)
        mine = []
        for item in np.argsort(-np.asarray(work, dtype=np.float64), kind="stable").tolist():
            rank = int(np.argmin(load))
            load[rank] += work[item]
            if rank == self.rank:
                mine.append(item)
        return np.sort(np.array(mine, dtype=np.intp))


SOLO = Team(1)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _pickled(error: BaseException) -> bytes:
    """A worker's error as its type, args, attributes and traceback text."""
    import traceback

    text = "".join(traceback.format_exception(error))
    try:
        return pickle.dumps((type(error), error.args, vars(error), text))
    except Exception:
        return pickle.dumps((RuntimeError, (repr(error),), {}, text))


def _unpickled(message: bytes, rank: int) -> BaseException:
    """The error that worker ``rank`` sent, rebuilt as its own type without calling its init."""
    if not message:
        return RuntimeError(f"team worker {rank} ended without reaching the barrier")
    kind, args, attrs, text = pickle.loads(message)
    error = kind.__new__(kind)
    error.args = args
    vars(error).update(attrs)
    # add_note's list, which Python 3.10 keeps without printing it
    note = f"raised in team worker {rank}:\n{text}"
    error.__notes__ = [*getattr(error, "__notes__", []), note]
    return error
