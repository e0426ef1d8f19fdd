/* C stubs for the flat trace format: page release for the reader, and
 * the runtime's incremental MD5 for the writer.
 *
 * release_pages drops the resident pages under a byte range of a mapped
 * Bigarray with madvise(MADV_DONTNEED). The reader maps its columns
 * MAP_PRIVATE from a read-only descriptor and never writes them, so a
 * released page holds nothing private: a later touch re-faults it from
 * the file. Both ends of the range round down to a page boundary, so
 * the call never reaches past the mapping (the mapping itself starts on
 * the page holding its first byte). A Bigarray that is not a file
 * mapping is left alone.
 *
 * The MD5 stubs expose caml_MD5Init/Update/Final over a context kept in
 * an OCaml bytes value (it holds no pointers, so the GC may move it
 * between calls). The writer digests 64 KiB per update, so no C call
 * runs for longer than about 0.1 ms.
 */
#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/md5.h>
#include <stdint.h>
#include <sys/mman.h>
#include <unistd.h>

CAMLprim value ddg_trace_io_release_pages(value ba, value off, value len)
{
  uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE);
  uintptr_t start = (uintptr_t)Caml_ba_data_val(ba) + Long_val(off);
  uintptr_t lo = start & ~(page - 1);
  uintptr_t hi = (start + Long_val(len)) & ~(page - 1);
  if ((Caml_ba_array_val(ba)->flags & CAML_BA_MANAGED_MASK)
        == CAML_BA_MAPPED_FILE
      && hi > lo)
    madvise((void *)lo, hi - lo, MADV_DONTNEED);
  return Val_unit;
}

CAMLprim value ddg_trace_io_md5_size(value unit)
{
  (void)unit;
  return Val_long(sizeof(struct MD5Context));
}

CAMLprim value ddg_trace_io_md5_init(value ctx)
{
  caml_MD5Init((struct MD5Context *)Bytes_val(ctx));
  return Val_unit;
}

CAMLprim value ddg_trace_io_md5_update(value ctx, value buf, value off,
                                       value len)
{
  caml_MD5Update((struct MD5Context *)Bytes_val(ctx),
                 Bytes_val(buf) + Long_val(off), Long_val(len));
  return Val_unit;
}

CAMLprim value ddg_trace_io_md5_final(value ctx, value digest)
{
  caml_MD5Final(Bytes_val(digest), (struct MD5Context *)Bytes_val(ctx));
  return Val_unit;
}
