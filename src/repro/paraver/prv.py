"""Export timelines to the Paraver ``.prv`` text format.

The format is the classic Paraver trace format: a header line followed by
state records (type 1) and communication records (type 3).  Times are
written in nanoseconds as Paraver expects integer timestamps.  Records are
written in a canonical order -- states per rank by time, communications by
(send time, receive time, src, dst, tag, size) -- so the file does not
depend on the order a replay walk recorded them in.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.paraver.timeline import Timeline

#: Conversion factor from simulated seconds to Paraver nanoseconds.
NANOSECONDS = 1.0e9


def _nanoseconds(value: float) -> int:
    return int(round(value * NANOSECONDS))


def to_prv(timeline: Timeline) -> str:
    """Render ``timeline`` as the contents of a ``.prv`` file."""
    total = _nanoseconds(timeline.duration)
    num_tasks = timeline.num_ranks
    # Header: #Paraver (date):total_time:nNodes(cpus,..):nAppl:appl_list
    node_spec = f"{num_tasks}({','.join('1' for _ in range(num_tasks))})"
    appl_spec = f"{num_tasks}({','.join('1:1' for _ in range(num_tasks))})"
    lines: List[str] = [
        f"#Paraver (01/01/10 at 00:00):{total}_ns:{node_spec}:1:{appl_spec}"
    ]
    # State records: 1:cpu:appl:task:thread:begin:end:state
    for rank in range(num_tasks):
        for interval in timeline.rank_intervals(rank):
            lines.append(
                "1:{cpu}:1:{task}:1:{begin}:{end}:{state}".format(
                    cpu=rank + 1, task=rank + 1,
                    begin=_nanoseconds(interval.start),
                    end=_nanoseconds(interval.end),
                    state=int(interval.state)))
    # Communication records:
    # 3:cpu:ptask:task:thread:logical_send:physical_send:
    #   cpu:ptask:task:thread:logical_recv:physical_recv:size:tag
    communications = sorted(
        timeline.communications,
        key=lambda comm: (comm.send_time, comm.recv_time, comm.src, comm.dst,
                          comm.tag, comm.size))
    for comm in communications:
        send_ns = _nanoseconds(comm.send_time)
        recv_ns = _nanoseconds(comm.recv_time)
        lines.append(
            "3:{scpu}:1:{stask}:1:{ls}:{ps}:{rcpu}:1:{rtask}:1:{lr}:{pr}:{size}:{tag}".format(
                scpu=comm.src + 1, stask=comm.src + 1, ls=send_ns, ps=send_ns,
                rcpu=comm.dst + 1, rtask=comm.dst + 1, lr=recv_ns, pr=recv_ns,
                size=comm.size, tag=comm.tag))
    return "\n".join(lines) + "\n"


def export_prv(timeline: Timeline, path: Union[str, Path]) -> Path:
    """Write ``timeline`` to ``path`` in ``.prv`` format and return the path."""
    path = Path(path)
    path.write_text(to_prv(timeline), encoding="utf-8")
    return path
