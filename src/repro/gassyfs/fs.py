"""The GassyFS distributed in-memory file system.

Files live as fixed-size blocks scattered over the cluster's memory
segments by a placement policy; metadata (a POSIX-ish inode tree) lives
on the mounting node.  Every operation both *works* (real bytes round-trip
through real blocks) and *costs* (modeled time charged through the GASNet
substrate and the FUSE layer), so the same code path answers functional
tests and produces the scalability figure.

Paper: "GassyFS ... stores files in distributed remote memory provided by
workers ... over a network with support for RDMA; the FUSE implementation
runs on a dedicated node."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import FSError, GassyFSError
from repro.gassyfs.gasnet import GasnetCluster
from repro.gassyfs.placement import PlacementPolicy, RoundRobin
from repro.monitor.metrics import MetricStore

__all__ = ["MountOptions", "FileStat", "GassyFS"]

_FUSE_OP_OVERHEAD_S = 8e-6  # per-VFS-call user/kernel crossing cost


@dataclass(frozen=True)
class MountOptions:
    """The (subset of 30+) FUSE/GassyFS mount options the experiments vary."""

    block_size: int = 1 << 20
    segment_bytes: int = 1 << 30   # memory each node contributes
    direct_io: bool = False        # bypass page-cache modeling
    writeback: bool = True         # async write-behind (cheaper writes)
    atomic_o_trunc: bool = True
    replicas: int = 1              # copies of every block (fault tolerance)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise GassyFSError(f"block size must be positive: {self.block_size}")
        if self.segment_bytes < self.block_size:
            raise GassyFSError("segment smaller than one block")
        if self.replicas < 1:
            raise GassyFSError(f"replicas must be >= 1: {self.replicas}")


@dataclass(frozen=True)
class FileStat:
    """Subset of ``struct stat`` the experiments consult."""

    path: str
    is_dir: bool
    size: int
    blocks: int


@dataclass
class _Inode:
    is_dir: bool
    children: dict[str, "_Inode"] = field(default_factory=dict)  # dirs
    block_ids: list[int] = field(default_factory=list)           # files
    size: int = 0


class GassyFS:
    """A mounted GassyFS instance.

    Parameters
    ----------
    cluster:
        The GASNet communication domain (its node list defines capacity).
    options:
        Mount options.
    policy:
        Block placement policy (round-robin by default, like the real
        system's striping).
    client_rank:
        The rank running FUSE — all metadata and all data ultimately
        flows through this node.
    metrics:
        Optional store receiving per-op latency samples.
    """

    def __init__(
        self,
        cluster: GasnetCluster,
        options: MountOptions | None = None,
        policy: PlacementPolicy | None = None,
        client_rank: int = 0,
        metrics: MetricStore | None = None,
    ) -> None:
        self.cluster = cluster
        self.options = options or MountOptions()
        self.policy = policy or RoundRobin()
        if not 0 <= client_rank < len(cluster):
            raise GassyFSError(f"client rank {client_rank} outside cluster")
        self.client_rank = client_rank
        self.metrics = metrics
        self._root = _Inode(is_dir=True)
        self._blocks: dict[int, tuple[tuple[int, ...], bytes]] = {}  # id -> (replica ranks, data)
        self._next_block = 0
        self._used = [0] * len(cluster)
        self._capacity = [self.options.segment_bytes] * len(cluster)
        self.clock = 0.0
        self.last_op_elapsed = 0.0

    # -- path plumbing ------------------------------------------------------------
    @staticmethod
    def _parts(path: str) -> list[str]:
        if not path.startswith("/"):
            raise FSError("EINVAL", path, "paths must be absolute")
        parts = [p for p in path.split("/") if p]
        if any(p in (".", "..") for p in parts):
            raise FSError("EINVAL", path, "no . or .. allowed")
        return parts

    def _lookup(self, path: str) -> _Inode:
        node = self._root
        for part in self._parts(path):
            if not node.is_dir:
                raise FSError("ENOTDIR", path)
            if part not in node.children:
                raise FSError("ENOENT", path)
            node = node.children[part]
        return node

    def _parent_of(self, path: str) -> tuple[_Inode, str]:
        parts = self._parts(path)
        if not parts:
            raise FSError("EINVAL", path, "root has no parent")
        node = self._root
        for part in parts[:-1]:
            if not node.is_dir:
                raise FSError("ENOTDIR", path)
            if part not in node.children:
                raise FSError("ENOENT", path)
            node = node.children[part]
        if not node.is_dir:
            raise FSError("ENOTDIR", path)
        return node, parts[-1]

    def _charge(self, op: str, elapsed: float) -> None:
        self.last_op_elapsed = elapsed + _FUSE_OP_OVERHEAD_S
        self.clock += elapsed + _FUSE_OP_OVERHEAD_S
        if self.metrics is not None:
            self.metrics.record(
                "gassyfs.op_latency",
                elapsed + _FUSE_OP_OVERHEAD_S,
                labels={"op": op, "nodes": len(self.cluster)},
            )

    # -- directory operations ---------------------------------------------------------
    def mkdir(self, path: str) -> None:
        parent, name = self._parent_of(path)
        if name in parent.children:
            raise FSError("EEXIST", path)
        parent.children[name] = _Inode(is_dir=True)
        self._charge("mkdir", 0.0)

    def readdir(self, path: str) -> list[str]:
        node = self._lookup(path) if path != "/" else self._root
        if not node.is_dir:
            raise FSError("ENOTDIR", path)
        self._charge("readdir", 0.0)
        return sorted(node.children)

    def rmdir(self, path: str) -> None:
        parent, name = self._parent_of(path)
        node = parent.children.get(name)
        if node is None:
            raise FSError("ENOENT", path)
        if not node.is_dir:
            raise FSError("ENOTDIR", path)
        if node.children:
            raise FSError("ENOTEMPTY", path)
        del parent.children[name]
        self._charge("rmdir", 0.0)

    # -- file operations ------------------------------------------------------------------
    def create(self, path: str) -> None:
        parent, name = self._parent_of(path)
        if name in parent.children:
            raise FSError("EEXIST", path)
        parent.children[name] = _Inode(is_dir=False)
        self._charge("create", 0.0)

    def write(
        self, path: str, data: bytes, append: bool = False, rank: int | None = None
    ) -> int:
        """Write *data* (whole-file or append); returns bytes written.

        *rank* is the node issuing the write (defaults to the FUSE client).
        """
        writer = self.client_rank if rank is None else rank
        if not 0 <= writer < len(self.cluster):
            raise GassyFSError(f"writer rank {writer} outside cluster")
        node = self._lookup(path)
        if node.is_dir:
            raise FSError("EISDIR", path)
        if not append:
            self._free_blocks(node)
        elapsed = 0.0
        block_size = self.options.block_size
        replicas = min(self.options.replicas, len(self.cluster))
        for offset in range(0, len(data), block_size):
            chunk = data[offset : offset + block_size]
            targets: list[int] = []
            for _copy in range(replicas):
                try:
                    target = self.policy.place(
                        self._next_block,
                        writer,
                        self._used,
                        self._capacity,
                        block_bytes=len(chunk),
                    )
                except GassyFSError as exc:
                    raise FSError("ENOSPC", path, str(exc)) from exc
                if target in targets:
                    # policy repeated a rank; fall back to the least-used
                    # viable rank not yet holding this block
                    others = [
                        r for r in range(len(self.cluster))
                        if r not in targets
                        and self._used[r] + len(chunk) <= self._capacity[r]
                    ]
                    if not others:
                        raise FSError(
                            "ENOSPC", path, "not enough space for replicas"
                        )
                    target = min(others, key=lambda r: self._used[r])
                if self._used[target] + len(chunk) > self._capacity[target]:
                    raise FSError("ENOSPC", path, "policy chose a full segment")
                targets.append(target)
                self._used[target] += len(chunk)
                elapsed += self.cluster.put(writer, target, len(chunk))
            block_id = self._next_block
            self._next_block += 1
            self._blocks[block_id] = (tuple(targets), bytes(chunk))
            node.block_ids.append(block_id)
        node.size += len(data) if append else 0
        if not append:
            node.size = len(data)
        if self.options.writeback and not self.options.direct_io:
            elapsed *= 0.6  # write-behind overlaps transfers with the app
        self._charge("write", elapsed)
        return len(data)

    def read(self, path: str, rank: int | None = None) -> bytes:
        """Read the whole file back (bytes round-trip exactly).

        *rank* is the node issuing the read (defaults to the FUSE client).
        """
        reader = self.client_rank if rank is None else rank
        if not 0 <= reader < len(self.cluster):
            raise GassyFSError(f"reader rank {reader} outside cluster")
        node = self._lookup(path)
        if node.is_dir:
            raise FSError("EISDIR", path)
        elapsed = 0.0
        chunks: list[bytes] = []
        for block_id in node.block_ids:
            if block_id not in self._blocks:
                raise FSError(
                    "EIO", path, "block lost to a failed node (restore a checkpoint)"
                )
            holders, data = self._blocks[block_id]
            holder = reader if reader in holders else holders[0]
            elapsed += self.cluster.get(reader, holder, len(data))
            chunks.append(data)
        payload = b"".join(chunks)[: node.size]
        self._charge("read", elapsed)
        return payload

    def unlink(self, path: str) -> None:
        parent, name = self._parent_of(path)
        node = parent.children.get(name)
        if node is None:
            raise FSError("ENOENT", path)
        if node.is_dir:
            raise FSError("EISDIR", path)
        self._free_blocks(node)
        del parent.children[name]
        self._charge("unlink", 0.0)

    def truncate(self, path: str, size: int = 0) -> None:
        node = self._lookup(path)
        if node.is_dir:
            raise FSError("EISDIR", path)
        if size != 0:
            raise FSError("EINVAL", path, "only truncate-to-zero supported")
        self._free_blocks(node)
        self._charge("truncate", 0.0)

    def rename(self, old: str, new: str) -> None:
        old_parent, old_name = self._parent_of(old)
        if old_name not in old_parent.children:
            raise FSError("ENOENT", old)
        new_parent, new_name = self._parent_of(new)
        if new_name in new_parent.children:
            raise FSError("EEXIST", new)
        new_parent.children[new_name] = old_parent.children.pop(old_name)
        self._charge("rename", 0.0)

    def stat(self, path: str) -> FileStat:
        node = self._lookup(path) if path != "/" else self._root
        self._charge("stat", 0.0)
        return FileStat(
            path=path,
            is_dir=node.is_dir,
            size=node.size,
            blocks=len(node.block_ids),
        )

    def exists(self, path: str) -> bool:
        try:
            self._lookup(path)
            return True
        except FSError:
            return False

    def _free_blocks(self, node: _Inode) -> None:
        for block_id in node.block_ids:
            entry = self._blocks.pop(block_id, None)
            if entry is not None:  # lost-to-failure blocks are already gone
                ranks, data = entry
                for rank in ranks:
                    self._used[rank] -= len(data)
        node.block_ids.clear()
        node.size = 0

    # -- capacity / placement introspection -------------------------------------------------
    def statfs(self) -> dict:
        """Aggregate and per-node capacity view."""
        return {
            "nodes": len(self.cluster),
            "capacity_bytes": sum(self._capacity),
            "used_bytes": sum(self._used),
            "per_node_used": list(self._used),
            "block_size": self.options.block_size,
        }

    def block_locations(self, path: str) -> list[int]:
        """Rank of every block of a file, in order."""
        node = self._lookup(path)
        if node.is_dir:
            raise FSError("EISDIR", path)
        return [self._blocks[b][0][0] for b in node.block_ids]

    # -- persistence (checkpoint to the client's local storage) ------------------------------
    def checkpoint(self, path: "str | None" = None) -> float:
        """Persist the whole FS image to the client node's storage.

        Returns the modeled time: every remote block crosses the network
        to the client, then streams to its storage device.  With *path*,
        the image is additionally written to the host filesystem so it
        can be restored after a node failure (GassyFS's answer to memory
        volatility).
        """
        spec = self.cluster.nodes[self.client_rank].spec
        elapsed = 0.0
        total = 0
        for ranks, data in self._blocks.values():
            if self.client_rank not in ranks:
                elapsed += self.cluster.transfer_time(
                    ranks[0], self.client_rank, len(data)
                )
            total += len(data)
        elapsed += total / spec.storage_bytes_per_sec
        if path is not None:
            self._write_image(path)
        self._charge("checkpoint", elapsed)
        return elapsed

    def _write_image(self, path: str) -> None:
        import json

        from repro.common.fsutil import atomic_write

        def dump(node: _Inode) -> dict:
            if node.is_dir:
                return {
                    "dir": {name: dump(child) for name, child in node.children.items()}
                }
            return {
                "file": {
                    "size": node.size,
                    "blocks": [
                        self._blocks[b][1].hex() for b in node.block_ids
                    ],
                }
            }

        atomic_write(
            path, json.dumps(dump(self._root)).encode("utf-8"),
            crash_label="gassyfs.checkpoint",
        )

    def restore(self, path: str) -> float:
        """Reload a checkpoint image (after ``fail_node``, typically).

        Rebuilds the tree and re-places every block with the current
        policy; returns the modeled time (storage read + placement
        transfers).
        """
        import json
        from pathlib import Path as _Path

        doc = json.loads(_Path(path).read_text(encoding="utf-8"))
        self._root = _Inode(is_dir=True)
        self._blocks.clear()
        self._next_block = 0
        self._used = [0] * len(self.cluster)
        spec = self.cluster.nodes[self.client_rank].spec
        start_clock = self.clock

        def load(node_doc: dict, path_so_far: str) -> None:
            if "dir" in node_doc:
                if path_so_far:
                    self.mkdir(path_so_far)
                for name, child in node_doc["dir"].items():
                    load(child, f"{path_so_far}/{name}")
            else:
                meta = node_doc["file"]
                self.create(path_so_far)
                payload = b"".join(bytes.fromhex(h) for h in meta["blocks"])
                self.write(path_so_far, payload[: meta["size"]])

        load(doc, "")
        total = sum(len(d) for _, d in self._blocks.values())
        storage_time = total / spec.storage_bytes_per_sec
        self._charge("restore", storage_time)
        return self.clock - start_clock

    # -- fault injection ------------------------------------------------------------------------
    def fail_node(self, rank: int) -> int:
        """Crash one memory node: every block it held is lost.

        Returns the number of lost blocks.  Subsequent reads of affected
        files raise ``EIO`` — the volatility the paper's checkpointing
        discussion is about.
        """
        if not 0 <= rank < len(self.cluster):
            raise GassyFSError(f"rank {rank} outside cluster")
        lost: list[int] = []
        for block_id, (ranks, data) in list(self._blocks.items()):
            if rank not in ranks:
                continue
            self._used[rank] -= len(data)
            survivors = tuple(r for r in ranks if r != rank)
            if survivors:
                self._blocks[block_id] = (survivors, data)
            else:
                del self._blocks[block_id]
                lost.append(block_id)
        self._failed_blocks = getattr(self, "_failed_blocks", set()) | set(lost)
        return len(lost)
