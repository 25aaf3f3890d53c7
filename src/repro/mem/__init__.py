"""Memory substrate: caches, write buffer, directory, coherence, network."""

from repro.mem.cache import CacheArray, LineState, MSHRFile
from repro.mem.coherence import CoherentMemory, CorePort
from repro.mem.directory import DirEntry
from repro.mem.network import MeshNetwork
from repro.mem.writebuffer import WriteBuffer

__all__ = ["CacheArray", "CoherentMemory", "CorePort", "DirEntry",
           "LineState", "MSHRFile", "MeshNetwork", "WriteBuffer"]
