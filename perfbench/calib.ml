(* The benchmark's fixed reference job: hashing, list building and
   sorting, with a deterministic result.  It links only the standard
   library, so its run time tracks the host's speed and nothing in the
   analyzer can change it; run.py times it to scale every measured time
   to a reference host speed. *)

let () =
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for i = 0 to 150_000 do
    Hashtbl.replace h (i * 7919 mod 1_000_003) (string_of_int i, [ i; i + 1 ]);
    if i mod 3 = 0 then Hashtbl.remove h (i / 3 * 7919 mod 1_000_003)
  done;
  Hashtbl.iter (fun k (s, l) -> acc := !acc + k + String.length s + List.length l) h;
  let l = List.init 100_000 (fun i -> i * 48271 mod 2147483647) in
  acc := !acc + List.hd (List.sort compare l);
  print_int !acc
