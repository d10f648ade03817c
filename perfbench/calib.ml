(* Host-speed calibration.

   The benchmark runs on a few vCPUs of a shared host.  Other tenants'
   work on the same physical cores slows the program by up to a third for
   stretches of seconds to minutes, and CPU time does not leave that out:
   five seeds' CPU-time `find` throughput fell from 195 to 148 seeds/s over
   five runs in two minutes.  So every timed unit of work is followed by
   calibration probes: a fixed computation that uses none of the program's
   code (hashing, sorting, short-lived allocation: the kind of work the
   program does).  A block of work's CPU time is multiplied by
   [reference_s] over the mean CPU time of the probes run in that block,
   which gives its CPU time at a fixed host speed.  On one `find` seed run
   six times, the raw CPU time of the timed work ranged over 16 % and the
   rescaled time over 2 %.

   The probes share the program's process, heap and cache, so they slow
   down with it: a probe that allocates nothing (pointer chasing through a
   512 KB table) tracked the host four times worse, because the program's
   work between two probes evicts the table.  A change to the program
   does not change the probes, so a program that is faster by some factor
   reads faster by the same factor after rescaling. *)

(* the probe's mean CPU time at the reference host speed, about what it
   takes between the program's units on an idle 2-vCPU x86 host at
   2.1 GHz; it only sets the scale of every rescaled time *)
let reference_s = 0.4e-3

(* CPU seconds of timed work per probe: probes follow the work in
   proportion to its length, so a long unit's slowdown weighs as much as
   its length *)
let work_per_probe = 0.004

let sink = ref 0

let kernel () =
  let h = Hashtbl.create 256 in
  for i = 0 to 1499 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 1201)) (float_of_int i *. 1.5)
  done;
  let a = Array.of_list (List.sort compare (List.init 800 (fun i -> i * 7919 mod 1009))) in
  Array.iteri (fun i x -> sink := !sink + (x lxor i) + Hashtbl.length h) a

type t = { mutable probe_s : float; mutable probes : int }

let create () = { probe_s = 0.0; probes = 0 }

let probe t =
  let c0 = Metric.cpu () in
  kernel ();
  t.probe_s <- t.probe_s +. (Metric.cpu () -. c0);
  t.probes <- t.probes + 1

(* probes for [work_s] CPU seconds of just-finished work *)
let after t ~work_s =
  for _ = 1 to max 1 (int_of_float (Float.round (work_s /. work_per_probe))) do
    probe t
  done

(* CPU seconds to reference-speed seconds, from the probes [t] ran since
   [since] (a copy taken earlier) *)
let factor ?(since = create ()) t =
  let n = t.probes - since.probes in
  if n = 0 then invalid_arg "Calib.factor: no probes";
  reference_s /. ((t.probe_s -. since.probe_s) /. float_of_int n)

let copy t = { probe_s = t.probe_s; probes = t.probes }
