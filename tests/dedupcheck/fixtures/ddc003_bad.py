"""Violates DDC003: materialises the whole file mid-stream."""


class Dedup:
    def _begin_file(self, file):
        self._file = file

    def _ingest_chunks(self, batch, digests):
        whole = self._file.data  # whole-file bytes: breaks streaming
        again = self._file.read_bytes()
        return len(whole) + len(again)
