"""A forked child process that answers its parent in pickles.

The child runs ``serve(jobs)``, a generator over the objects its parent
sends, and pickles each object it yields back to the parent on a pipe;
the pipe's buffer bounds how far ahead of its reader it runs. It leaves
only through ``os._exit``, so it never flushes a buffer or runs an exit
hook it inherited. Both pipes are ``os.pipe``s, which the command-line
agents either process spawns do not inherit.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
import threading


def can_fork() -> bool:
    """True where a child can run beside this process: the platform forks,
    the process may use two cores, and it runs no other thread, whose held
    locks a fork would copy."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
        and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def _loads(fh):
    with contextlib.suppress(EOFError):
        while True:
            yield pickle.load(fh)


class Forked:
    """One child running ``serve``, forked on the first ``send`` or
    ``receive``. Where ``can_fork`` says no or the fork fails, and after
    ``close``, those calls return False and None, and it never forks."""

    def __init__(self, serve):
        self._serve = serve  # None once a fork was tried, or closed
        self.pid: int | None = None

    def _running(self) -> bool:
        """Fork the child on the first call, where ``can_fork`` says yes;
        True while it runs."""
        serve, self._serve = self._serve, None
        if serve is None or not can_fork():
            return self.pid is not None
        jobs_r, jobs_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (jobs_r, jobs_w, replies_r, replies_w):
                os.close(fd)
            return False
        if pid == 0:
            try:
                gc.freeze()  # leave the parent's objects be: no finalizer runs here
                os.close(jobs_w)
                os.close(replies_r)
                with open(jobs_r, "rb") as jobs, open(replies_w, "wb") as replies, \
                        contextlib.closing(serve(_loads(jobs))) as out:
                    for reply in out:
                        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                        replies.flush()
            finally:  # served, the parent gone, or anything else went wrong
                os._exit(0)
        os.close(jobs_r)
        os.close(replies_w)
        self.pid = pid
        self._jobs, self._replies = open(jobs_w, "wb"), open(replies_r, "rb")
        return True

    def send(self, job) -> bool:
        """Pickle ``job`` to the child; False, and the child closed, when it
        cannot take it."""
        if not self._running():
            return False
        try:
            pickle.dump(job, self._jobs, pickle.HIGHEST_PROTOCOL)
            self._jobs.flush()
        except OSError:
            self.close()
            return False
        return True

    def receive(self, kinds):
        """The child's next reply, an instance of ``kinds``; None, and the
        child closed, when it died, ended or sent anything else."""
        if not self._running():
            return None
        try:
            reply = pickle.load(self._replies)
        except Exception:  # a read or unpickling fault of any kind
            reply = None
        if not isinstance(reply, kinds):
            self.close()
            return None
        return reply

    def close(self) -> None:
        """Kill and reap the child, if it runs; it is not forked again."""
        self._serve = None
        if self.pid is None:
            return
        for pipe in (self._jobs, self._replies):
            with contextlib.suppress(OSError):  # a flush into a dead child's pipe
                pipe.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        self.pid = None
