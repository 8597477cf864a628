/* CPU affinity for the host-speed probes (see speed.ml). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs this process may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(result);
  cpu_set_t set;
  int n = 0, i, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    CAMLreturn(Atom(0));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  if (n == 0)
    CAMLreturn(Atom(0));
  result = caml_alloc(n, 0);
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(result, k++, Val_int(i));
  CAMLreturn(result);
}

/* Restricts this process to one CPU; false when the kernel refuses. */
value perfbench_pin_to_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
