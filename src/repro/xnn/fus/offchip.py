"""Off-chip interface FUs: DDR (feature maps) and LPDDR (weights and biases).

Table 2 gives their control planes:

* ``DDR``: addr, stride size, stride offset, stride count, load yes/no,
  destFU, store yes/no, srcFU.
* ``LPDDR``: addr, stride size, stride offset, stride count, destFU,
  load bias yes/no.

In this simulator an "address" is a named tensor plus a 2-D slice, which keeps
instruction generation readable while still letting the functional mode move
real NumPy data.  The uOP ordering of the DDR FU is exactly what Section 4.4
exposes to software: because the FU executes its uOPs strictly in program
order, the *sequence* of load and store uOPs the code generator emits is the
load/store interleaving on the single DDR channel.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

import numpy as np

from ...core import ConfigurationError, Delay, FunctionalUnit, TileMessage, UOp, Write
from ...hardware.memory import MemoryChannelModel

__all__ = ["HostMemory", "DDRFU", "LPDDRFU"]


class HostMemory:
    """Named tensors living in (simulated) off-chip memory.

    ``carry_data=True`` stores real NumPy arrays so the functional outputs can
    be validated; ``carry_data=False`` stores only shapes, which makes long
    timing-only runs cheap while keeping byte accounting identical.
    """

    def __init__(self, carry_data: bool = True, dtype: str = "fp32"):
        self.carry_data = carry_data
        self.dtype = dtype
        self._arrays: Dict[str, np.ndarray] = {}
        self._shapes: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------ management

    def add(self, name: str, array_or_shape) -> None:
        """Register a tensor, either a real array or a (rows, cols) shape."""
        if isinstance(array_or_shape, np.ndarray):
            self._shapes[name] = tuple(array_or_shape.shape)
            if self.carry_data:
                self._arrays[name] = np.array(
                    array_or_shape, dtype=np.float32, copy=True
                )
        else:
            shape = tuple(int(s) for s in array_or_shape)
            self._shapes[name] = shape
            if self.carry_data:
                self._arrays[name] = np.zeros(shape, dtype=np.float32)

    def allocate(self, name: str, shape: Tuple[int, int]) -> None:
        """Allocate an output/intermediate tensor filled with zeros."""
        self.add(name, shape)

    def __contains__(self, name: str) -> bool:
        return name in self._shapes

    def shape(self, name: str) -> Tuple[int, int]:
        try:
            return self._shapes[name]
        except KeyError:
            raise ConfigurationError(f"host memory has no tensor {name!r}") from None

    def array(self, name: str) -> np.ndarray:
        if not self.carry_data:
            raise ConfigurationError("host memory was created with carry_data=False")
        return self._arrays[name]

    # ---------------------------------------------------------------- slices

    def read_tile(
        self, name: str, row0: int, col0: int, rows: int, cols: int, tag: str = ""
    ) -> TileMessage:
        """Read a 2-D slice as a tile message (placeholder in timing-only mode)."""
        shape = self.shape(name)
        if row0 < 0 or col0 < 0 or row0 + rows > shape[0] or col0 + cols > shape[1]:
            raise ConfigurationError(
                f"read of {name}[{row0}:{row0+rows}, {col0}:{col0+cols}] outside shape {shape}"
            )
        if self.carry_data:
            data = self._arrays[name][row0 : row0 + rows, col0 : col0 + cols]
            return TileMessage.from_array(
                data, dtype=self.dtype, tag=tag, coords=(row0, col0)
            )
        return TileMessage.placeholder(
            (rows, cols), dtype=self.dtype, tag=tag, coords=(row0, col0)
        )

    def write_tile(self, name: str, row0: int, col0: int, message: TileMessage) -> None:
        """Write a tile message back into a tensor (no-op payload when timing-only)."""
        rows, cols = message.shape
        shape = self.shape(name)
        if row0 + rows > shape[0] or col0 + cols > shape[1]:
            raise ConfigurationError(
                f"write of {name}[{row0}:{row0+rows}, {col0}:{col0+cols}] outside shape {shape}"
            )
        if self.carry_data and message.data is not None:
            self._arrays[name][row0 : row0 + rows, col0 : col0 + cols] = message.data


class _OffchipFU(FunctionalUnit):
    """Shared behaviour of the DDR and LPDDR FUs."""

    def __init__(
        self, name: str, fu_type: str, channel: MemoryChannelModel, memory: HostMemory
    ):
        super().__init__(name, fu_type=fu_type)
        self.channel = channel
        self.memory = memory

    # Helpers used by the kernels -------------------------------------------------

    def _load(self, uop: UOp) -> Generator:
        tensor = uop["tensor"]
        row0, col0 = int(uop.get("row0", 0)), int(uop.get("col0", 0))
        rows, cols = int(uop["rows"]), int(uop["cols"])
        strided = bool(uop.get("strided", False))
        tag = uop.get("tag", f"{tensor}[{row0},{col0}]")
        tile = self.memory.read_tile(tensor, row0, col0, rows, cols, tag=tag)
        yield Delay(self.channel.read_time(tile.nbytes, strided=strided))
        self.stats.bytes_in += tile.nbytes
        dest_port = self.port(f"to_{uop['dest']}")
        yield Write(dest_port, tile)

    def _store(self, uop: UOp) -> Generator:
        tile = yield self.read_request(f"from_{uop['src']}")
        strided = bool(uop.get("strided", False))
        yield Delay(self.channel.write_time(tile.nbytes, strided=strided))
        self.stats.bytes_out += tile.nbytes
        tensor = uop.get("tensor")
        if tensor is not None:
            row0, col0 = int(uop.get("row0", 0)), int(uop.get("col0", 0))
            self.memory.write_tile(tensor, row0, col0, tile)


class DDRFU(_OffchipFU):
    """The DDR channel FU: loads and stores feature maps (Fig. 10, Table 2).

    uOP fields
    ----------
    ``load`` / ``store``:
        Exactly one must be true per uOP (a uOP is one transfer direction).
    ``tensor``, ``row0``, ``col0``, ``rows``, ``cols``:
        The off-chip "address": a named tensor and a 2-D slice.
    ``dest`` / ``src``:
        Name of the on-chip FU the data goes to / comes from; the DDR FU has
        one port per connected FU named ``to_<FU>`` / ``from_<FU>``.
    ``strided``:
        Charge the strided-access bandwidth penalty for this transfer.
    """

    def __init__(self, name: str, channel: MemoryChannelModel, memory: HostMemory):
        super().__init__(name, fu_type="DDR", channel=channel, memory=memory)

    def kernel(self, uop: UOp) -> Generator:
        load = bool(uop.get("load", False))
        store = bool(uop.get("store", False))
        if load == store:
            raise ConfigurationError(
                f"{self.name}: uOP must set exactly one of load/store, got {uop!r}"
            )
        if load:
            yield from self._load(uop)
        else:
            yield from self._store(uop)


class LPDDRFU(_OffchipFU):
    """The LPDDR channel FU: loads read-only weights and biases."""

    def __init__(self, name: str, channel: MemoryChannelModel, memory: HostMemory):
        super().__init__(name, fu_type="LPDDR", channel=channel, memory=memory)

    def kernel(self, uop: UOp) -> Generator:
        if not uop.get("load", True):
            raise ConfigurationError(
                f"{self.name}: LPDDR only supports loads, got {uop!r}"
            )
        yield from self._load(uop)
