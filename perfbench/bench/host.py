"""Facts about the run that are not metrics: host speed, memory, version."""
import os
import resource
import statistics
import time


def host_spin_ms(reps: int = 7) -> float:
    """Median time of a fixed pure-Python loop. Taken before and after a
    run, it separates a host that got slower from a program that did."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def descendants(pid: int | None = None) -> list:
    """Pids of all live descendants of ``pid`` (default: this process)."""
    root = os.getpid() if pid is None else pid
    children = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its live descendants
    (e.g. the Spark JVM and its Python workers), each by its high-water
    mark. Helper processes that already ended do not count."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += sum(_status_kib(p, "VmHWM") for p in descendants())
    return kib / 1024


def git_sha(root: str) -> str | None:
    """Commit of a git checkout at ``root``, read from ``.git`` (None when
    the tree is not a git checkout)."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None
